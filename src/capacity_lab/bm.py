"""Brunn-Minkowski violation certificates, the two counterexample families,
the exact mean width with its Monte Carlo cross-check, and the mean-width
capacity criterion.

A certificate records the exact capacities c_k of a Minkowski sum and of
its two summands together with the exact ordering of sqrt(c_sum) against
sqrt(c_1) + sqrt(c_2); the pi factors cancel, so the square-root
comparison runs on rational coefficients and needs no floating point.
With the sum's argmin as its witness, ``verify_certificate`` re-derives
every field in O(1) exact operations, without the engine that wrote it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .domains import (
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    Polydisk,
    ellipsoid_capacity,
    format_domain,
    parse_domain,
)
from .exact import Ordering, PiRational, cmp_sqrt_combination
from .minkowski import sum_capacity_with_argmin


class Verdict(enum.Enum):
    """Outcome of one Brunn-Minkowski comparison at index k."""

    VIOLATES = "Violates"
    SATISFIES = "Satisfies"
    EQUALITY = "Equality"

    def __str__(self) -> str:
        return self.value


# the sign of sqrt(c_sum) - sqrt(c_1) - sqrt(c_2) decides the verdict
_VERDICTS = {Ordering.LESS: Verdict.VIOLATES, Ordering.GREATER: Verdict.SATISFIES, Ordering.EQUAL: Verdict.EQUALITY}


class ReproductionError(RuntimeError):
    """A family certificate failed to violate or missed its closed form."""


@dataclass(frozen=True)
class BMCertificate:
    """Exact record of one comparison sqrt(c_k(K1+K2)) vs sqrt(c_k(K1)) + sqrt(c_k(K2))."""

    k: int
    domain1: Ellipsoid
    domain2: Ellipsoid
    c_sum: PiRational
    c_1: PiRational
    c_2: PiRational
    verdict: Verdict
    comparison: Ordering
    witness: IndexVector | None = None  # the sum's argmin over the normalized pair; None if proportional

    def margin(self) -> float:
        """Float value of sqrt(c_sum) - sqrt(c_1) - sqrt(c_2); sign matches comparison.

        OverflowError only when the margin itself is beyond float range.
        """
        if self.comparison is Ordering.EQUAL:
            return 0.0
        coeffs = [value.coeff for value in (self.c_sum, self.c_1, self.c_2)]
        # values beyond 2^1000 are divided by a common 4^j and the difference multiplied
        # by 2^j: powers of two scale every rounding step exactly, so no bit changes
        j = max(0, max(q.numerator.bit_length() - q.denominator.bit_length() for q in coeffs) - 1000) // 2
        s, t, u = (math.sqrt(float(q / 4**j if j else q) * math.pi) for q in coeffs)
        return math.ldexp(s - t - u, j)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "domain1": format_domain(self.domain1),
            "domain2": format_domain(self.domain2),
            "c_sum": self.c_sum.as_dict(),
            "c1": self.c_1.as_dict(),
            "c2": self.c_2.as_dict(),
            "verdict": str(self.verdict),
            "comparison": self.comparison.name,
            "witness": None if self.witness is None else {"v1": self.witness.v1, "v2": self.witness.v2},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BMCertificate":
        # bool is an int subclass; int() would truncate a float and parse a string
        if type(d["k"]) is not int:
            raise ValueError(f"k must be an integer, got {d['k']!r}")
        domain1 = parse_domain(d["domain1"])
        domain2 = parse_domain(d["domain2"])
        if not isinstance(domain1, Ellipsoid) or not isinstance(domain2, Ellipsoid):
            raise ValueError("certificate domains must be ellipsoids")
        return cls(
            k=d["k"],
            domain1=domain1,
            domain2=domain2,
            c_sum=PiRational.from_dict(d["c_sum"]),
            c_1=PiRational.from_dict(d["c1"]),
            c_2=PiRational.from_dict(d["c2"]),
            verdict=Verdict(d["verdict"]),
            comparison=Ordering[d["comparison"]],
            witness=None if (w := d.get("witness")) is None else _witness_from_dict(w, d["k"]),
        )


def _witness_from_dict(w, k: int) -> IndexVector:
    v = (w.get("v1"), w.get("v2")) if isinstance(w, dict) else (None,)
    if {type(x) for x in v} != {int} or min(v) < 0 or sum(v) != k:
        raise ValueError(f'witness must be null or {{"v1": v1, "v2": v2}}, JSON integers >= 0 with sum {k}')
    return IndexVector(*v)


def even_family(k: int) -> EllipsoidPair:
    """The even-index counterexample pair (E(1+1/k, 1), E(1, 1+1/k))."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"even_family requires an even k >= 2, got {k}")
    bump = 1 + Fraction(1, k)
    return EllipsoidPair.normalized(Ellipsoid(bump, 1), Ellipsoid(1, bump))


def odd_family(k: int) -> EllipsoidPair:
    """The odd-index counterexample pair (E(1,1), E(1-1/k, 1))."""
    if k <= 1 or k % 2 != 1:
        raise ValueError(f"odd_family requires an odd k > 1, got {k}")
    return EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1 - Fraction(1, k), 1))


def bm_check(k: int, pair: EllipsoidPair) -> BMCertificate:
    """Compare sqrt(c_k(sum)) with sqrt(c_k(E1)) + sqrt(c_k(E2)), exactly."""
    c_sum, argmin = sum_capacity_with_argmin(k, pair)
    c_1 = ellipsoid_capacity(k, pair.first)
    c_2 = ellipsoid_capacity(k, pair.second)
    comparison = cmp_sqrt_combination(c_sum.coeff, c_1.coeff, c_2.coeff)
    return BMCertificate(
        k=k,
        domain1=pair.first,
        domain2=pair.second,
        c_sum=c_sum,
        c_1=c_1,
        c_2=c_2,
        verdict=_VERDICTS[comparison],
        comparison=comparison,
        witness=None if pair.proportional else argmin,
    )


def verify_certificate(cert: BMCertificate, reasons: list[str] | None = None) -> bool:
    """Re-derive every field of cert with ``oracle.cross_check``, never with the engine that wrote it.

    c_sum is checked at the witness (found by bisection when missing; a wrong one can only fail),
    c_1 against domain1 and c_2 against domain2; comparison and verdict are recomputed from them.
    The message of the first failed check is appended to reasons.
    """
    from .oracle import cross_check

    def failed(reason: str) -> bool:
        if reasons is not None:
            reasons.append(reason)
        return False

    for field, domain, value, witness in (
        ("c_sum", EllipsoidPair.normalized(cert.domain1, cert.domain2), cert.c_sum, cert.witness),
        ("c1", cert.domain1, cert.c_1, None),
        ("c2", cert.domain2, cert.c_2, None),
    ):
        try:
            cross_check(cert.k, domain, value, witness)
        except ValueError as exc:
            return failed(f"{field}: {exc}")
    comparison = cmp_sqrt_combination(cert.c_sum.coeff, cert.c_1.coeff, cert.c_2.coeff)
    if (comparison, _VERDICTS[comparison]) != (cert.comparison, cert.verdict):
        got, claimed = f"{comparison.name} ({_VERDICTS[comparison]})", f"{cert.comparison.name} ({cert.verdict})"
        return failed(f"comparison: the three values give {got}, not {claimed}")
    return True


def expected_family_coeff(k: int) -> Fraction:
    """Closed-form coefficient of c_k(sum) for the family at index k.

    Even k: 2k + 2 + 1/k.  Odd k: ((k+1)/2) (2 - 1/k)^2.
    """
    if k % 2 == 0:
        return 2 * k + 2 + Fraction(1, k)
    return Fraction(k + 1, 2) * (2 - Fraction(1, k)) ** 2


@dataclass(frozen=True)
class ReproduceRow:
    k: int
    family: str
    certificate: BMCertificate


def _reproduce_one(k: int) -> ReproduceRow:
    family = "even" if k % 2 == 0 else "odd"
    pair = even_family(k) if k % 2 == 0 else odd_family(k)
    cert = bm_check(k, pair)
    expected = PiRational(expected_family_coeff(k))
    if cert.c_sum != expected:
        raise ReproductionError(f"k={k}: computed c_sum = {cert.c_sum}, closed form expects {expected}")
    if cert.verdict is not Verdict.VIOLATES:
        raise ReproductionError(f"k={k}: expected verdict Violates, got {cert.verdict}")
    return ReproduceRow(k=k, family=family, certificate=cert)


def reproduce_theorem(k_max: int) -> list[ReproduceRow]:
    """One violating certificate per k in {2, ..., k_max}, ordered by k.

    Each row is checked against its closed form; any Satisfies verdict or
    closed-form mismatch raises ReproductionError.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    return [_reproduce_one(k) for k in range(2, k_max + 1)]


def mean_width(domain: DomainSpec) -> Fraction:
    """Exact mean width M(K): the average of the support function of K over S^3.

    The support function depends only on p = |z1|^2, which is uniform on
    [0, 1] for a uniform point of S^3 (see ``mean_width_estimate``), so M
    is an integral over p in closed form:

        M(P(a,b)) = 2(a + b)/3,   M(E(a,b)) = 2(a^2 + ab + b^2) / (3(a + b)).

    Support functions add under Minkowski sum, so M(E1 + E2) = M(E1) + M(E2).
    A product with a ball is not 4-dimensional and raises ValueError.
    """
    if isinstance(domain, Polydisk):
        return Fraction(2, 3) * (domain.a + domain.b)
    if isinstance(domain, Ellipsoid):
        a, b = domain.a, domain.b
        return 2 * (a * a + a * b + b * b) / (3 * (a + b))
    if isinstance(domain, EllipsoidPair):
        return mean_width(domain.first) + mean_width(domain.second)
    raise ValueError(
        "mean width supports only 4-dimensional ellipsoids, polydisks and ellipsoid sums, "
        f"got {format_domain(domain)}"
    )


@dataclass(frozen=True)
class MeanWidthEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


_CHUNK = 1 << 16


def mean_width_estimate(domain: DomainSpec, samples: int, seed: int) -> MeanWidthEstimate:
    """Monte Carlo mean width of a 4-dimensional ellipsoid or polydisk.

    Averages the support function over uniform points of S^3.  Only the
    squared plane-split p = |(x1,x2)|^2 of each point enters the support
    function:

        P(a,b): a sqrt(p) + b sqrt(1-p)
        E(a,b): sqrt(b^2 + (a^2 - b^2) p)

    For a uniform point of S^3 in C^2, the moment coordinate p = |z1|^2 is
    itself uniform on [0, 1] (Archimedes' theorem in dimension 4: p is
    u/(u+w) for independent chi-squared(2) u and w, which is Beta(1,1)).
    So each sample is one uniform draw of p from a seeded generator.

    The samples are drawn in chunks of at most 2^16 points into three
    arrays allocated once per call (1.5 MB, small enough to stay in
    cache); the chunks' means and squared deviations are merged with
    Chan's pairwise update, so memory does not grow with the sample count.
    stderr is the sample standard deviation over sqrt(samples).
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    # checked before numpy loads, so a refusal works without numpy
    if not isinstance(domain, (Ellipsoid, Polydisk)):
        raise ValueError(
            f"mean width supports only 4-dimensional ellipsoids and polydisks, got {format_domain(domain)}"
        )
    import numpy as np

    from . import _kernels

    split = _kernels.ellipsoid_support_split if isinstance(domain, Ellipsoid) else _kernels.polydisk_support_split
    a, b = float(domain.a), float(domain.b)
    rng = np.random.default_rng(seed)
    size = min(_CHUNK, samples)
    buffers = np.empty(size), np.empty(size), np.empty(size)
    count, mean, m2 = 0, 0.0, 0.0
    while count < samples:
        n = min(_CHUNK, samples - count)
        chunk_mean, chunk_m2 = _chunk_moments(rng, n, split, a, b, buffers)
        total = count + n
        delta = chunk_mean - mean
        mean += delta * (n / total)
        m2 += chunk_m2 + delta * delta * (count * n / total)
        count = total
    sd = math.sqrt(m2 / (samples - 1))
    return MeanWidthEstimate(mean=mean, stderr=sd / math.sqrt(samples), samples=samples, seed=seed)


def _chunk_moments(rng: np.random.Generator, n: int, split, a: float, b: float, buffers) -> tuple[float, float]:
    # Mean and sum of squared deviations of the support values at n uniform
    # draws of p.  Every array is the first n entries of one of the three
    # reused buffers (p, the values, split's scratch), so a chunk allocates
    # nothing; the deviations overwrite the values in place.
    p, out, rest = (buf[:n] for buf in buffers)
    rng.random(out=p)
    values = split(p, a, b, out=out, rest=rest)
    mean = float(values.mean())
    values -= mean
    values *= values
    return mean, float(values.sum())


@dataclass(frozen=True)
class CriterionReport:
    """Mean-width criterion at index k: the unit polydisk beats the bound.

    A normalized capacity satisfying the Brunn-Minkowski inequality is
    capped by pi M(K)^2 on centrally symmetric K.  With c_k(P(1,1)) = pi k,
    c_k(B^4(1)) = pi floor((k+1)/2), M(P(1,1)) = 4/3 and M(B^4(1)) = 1, the
    cap fails exactly when k / floor((k+1)/2) > (M(P(1,1)) / M(B^4(1)))^2
    = 16/9, so some c_k violates the inequality for every such k.
    """

    k: int
    violating: bool
    lhs: Fraction
    rhs: Fraction
    c_polydisk: PiRational
    c_ball: PiRational


def ostrover_criterion(k: int) -> CriterionReport:
    """Exact evaluation of k / floor((k+1)/2) > 16/9."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    half = (k + 1) // 2
    lhs = Fraction(k, half)
    rhs = (mean_width(Polydisk(1, 1)) / mean_width(Ellipsoid(1, 1))) ** 2
    return CriterionReport(
        k=k,
        violating=lhs > rhs,
        lhs=lhs,
        rhs=rhs,
        c_polydisk=PiRational(Fraction(k)),
        c_ball=PiRational(Fraction(half)),
    )
