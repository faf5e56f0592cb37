"""The four workloads of the capacity-lab benchmark.

Each workload is a list of requests built from the seed, a ``run`` that
makes one request's public calls, a ``layers`` that replays the calls a
request is made of one layer at a time (traced runs only), and a ``check``
that decides, without timing and without trusting the implementation under
test, whether an output is right.  Every call goes through ``call(name,
fn, *args)``; the name is ``<layer>.<function>`` and becomes a span when
the run is traced.  Requests with equal ``work_key`` do the same work,
so they share the fastest latency any of them reached.  ``small_requests``
are a few cheap requests that together make every span of the workload:
set-up warms up with the first, and the traced run of another workload
uses them to time the layers that workload leaves idle.

Why these workloads, and what the changes planned in ROADMAP.md should do
to them:

- ``cli_exact``: one fresh ``python -m capacity_lab.cli`` per request,
  rotating through the exact subcommands at small k.  Interpreter start and
  imports (numpy alone is ~115 ms) make up most of each request; the exact
  math is negligible.  Lazy import, option trimming and pool removal gain
  here; the O(log k) argmin is predicted flat.
- ``certify_large_k``: ``bm_check`` at k in [10^2, 10^4], a JSON round trip
  of the certificate, then ``verify_certificate``.  The linear argmin scans
  dominate, so the O(log k) search and the O(1) witness check gain here.
- ``sweep_small_k``: one ``bm_check`` per request over every pair of
  ellipsoids with radii p/q, p, q <= 3 at k = 2..4, then both paper
  families for k = 2..200.  Same exact layers, but overhead-bound: a fast
  path that wins at large k must stay flat here.
- ``oracle_numeric``: the float oracle and kernels only; the exact layers
  idle.  Kernel deduplication and numba removal are predicted flat here;
  the ``mean_width_estimate`` memory fix should lower ``peak_rss_mb``.

Predicted no-change workloads per change: the argmin binary search gains
on certify_large_k with sweep_small_k and cli_exact flat; the lazy numpy
import gains on cli_exact with the others flat apart from setup_s; kernel
deduplication keeps oracle_numeric flat.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from capacity_lab import (
    BMCertificate,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    Polydisk,
    Verdict,
    bm_check,
    capacity,
    cmp_sqrt_combination,
    convexity_check,
    ellipsoid_capacity,
    ellipsoid_norm_argmin,
    even_family,
    expected_family_coeff,
    format_domain,
    format_rational,
    mean_width_estimate,
    odd_family,
    omega_curve,
    ostrover_criterion,
    parse_domain,
    s_derivative_signcheck,
    sum_capacity_with_argmin,
    support_norm,
    support_norm_numeric,
    verify_certificate,
)
from capacity_lab import _kernels
from speed import interpreter_start, python_loop

ORACLE_GAP = 1e-9


@dataclass
class Stats:
    """Figures the per-layer report needs besides span times."""

    argmin_fracs: list[float] = field(default_factory=list)
    oracle_gaps: list[float] = field(default_factory=list)


@dataclass
class Context:
    """Where the run lives: the checkout root, its results directory, and
    the environment for CLI subprocesses."""

    root: str
    results: str
    env: dict
    seed: int
    stats: Stats = field(default_factory=Stats)


def _radius(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(1, height), rng.randint(1, height))


def _ellipsoid(rng: random.Random, height: int = 12) -> Ellipsoid:
    return Ellipsoid(_radius(rng, height), _radius(rng, height))


def _nonprop_pair(rng: random.Random, height: int = 12) -> EllipsoidPair:
    while True:
        pair = EllipsoidPair.normalized(_ellipsoid(rng, height), _ellipsoid(rng, height))
        if not pair.proportional:
            return pair


def _prop_pair(rng: random.Random, height: int = 12) -> EllipsoidPair:
    e1 = _ellipsoid(rng, height)
    return EllipsoidPair.normalized(e1, e1.scaled(_radius(rng, height)))


def _family(k: int) -> EllipsoidPair:
    return even_family(k) if k % 2 == 0 else odd_family(k)


# --------------------------------------------------------------------------
# cli_exact
# --------------------------------------------------------------------------


def _run_cli(ctx: Context, argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "capacity_lab.cli", *argv],
        cwd=ctx.root,
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"capacity-lab {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _matches(got, want) -> bool:
    """True when every field of ``want`` is present in ``got`` and equal."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(key in got and _matches(got[key], val) for key, val in want.items())
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    return got == want


@dataclass(frozen=True)
class CliRequest:
    span: str
    argv: tuple[str, ...]
    expected: object = field(compare=False)


class CliExact:
    """One CLI subprocess per request; stdout is compared with the library."""

    name = "cli_exact"
    main_layer = "cli"
    spans = frozenset(
        {"cli.capacity", "cli.bm_check", "cli.check_certificate", "cli.criterion", "cli.reproduce", "cli.search"}
    )

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        reqs = []
        ell = _ellipsoid(rng)
        poly = Polydisk(_radius(rng, 12), _radius(rng, 12))
        pair = _nonprop_pair(rng)
        sum_lit = f"sum({format_domain(pair.first)},{format_domain(pair.second)})"
        inner = _ellipsoid(rng)
        # pi R^2 > c_12(inner) >= c_k(inner) for every k drawn below
        radius = math.isqrt(math.ceil(ellipsoid_capacity(12, inner).coeff)) + 1
        prod_lit = f"prod({format_domain(inner)},{rng.randint(1, 3)},{radius})"
        for lit in (format_domain(ell), format_domain(poly), sum_lit, prod_lit):
            kk = rng.randint(2, 12)
            dom = parse_domain(lit)
            reqs.append(
                CliRequest(
                    "cli.capacity",
                    ("capacity", str(kk), lit),
                    {"domain": format_domain(dom), "value": capacity(kk, dom).as_dict()},
                )
            )
        kk = rng.randint(2, 12)
        e1, e2 = _ellipsoid(rng), _ellipsoid(rng)
        cert = bm_check(kk, EllipsoidPair.normalized(e1, e2))
        reqs.append(
            CliRequest("cli.bm_check", ("bm-check", str(kk), format_domain(e1), format_domain(e2)), cert.to_dict())
        )
        self.cert_path = f"{ctx.results}/cli_exact.seed{ctx.seed}.cert.json"
        with open(self.cert_path, "w", encoding="utf-8") as fh:
            json.dump(cert.to_dict(), fh)
        reqs.append(CliRequest("cli.check_certificate", ("bm-check", "--check-certificate", self.cert_path), {"valid": True}))
        reqs.append(
            CliRequest(
                "cli.criterion",
                ("criterion", "1..20"),
                [
                    {"k": rep.k, "violating": rep.violating, "lhs": format_rational(rep.lhs)}
                    for rep in map(ostrover_criterion, range(1, 21))
                ],
            )
        )
        reproduce = CliRequest(
            "cli.reproduce",
            ("reproduce", "100"),
            [
                {"k": kk, "c_sum": format_rational(expected_family_coeff(kk)), "verdict": str(Verdict.VIOLATES)}
                for kk in range(2, 101)
            ],
        )
        reqs.append(CliRequest("cli.search", ("search", "2", "2..4"), self._search_expected(2, range(2, 5))))
        # reproduce, the slowest subcommand, runs twice a pass: the tail
        # percentile then has its ten samples above it within one subcommand
        # instead of on the edge between several of about the same cost.
        self.requests = [*reqs[:4], reproduce, *reqs[4:], reproduce]

    @staticmethod
    def _search_expected(bound: int, ks: range) -> list[dict]:
        radii = sorted({Fraction(p, q) for p in range(1, bound + 1) for q in range(1, bound + 1)})
        ells = [Ellipsoid(a, b) for a in radii for b in radii]
        certs = (
            bm_check(k, EllipsoidPair.normalized(e1, e2))
            for i, e1 in enumerate(ells)
            for e2 in ells[i:]
            for k in ks
        )
        return [c.to_dict() for c in certs if c.verdict is Verdict.VIOLATES]

    def speed_reference(self):
        return interpreter_start(self.ctx)

    @staticmethod
    def work_key(req: CliRequest):
        # Requests of one subcommand differ only in their literals, which
        # cost nothing next to starting the interpreter.
        return req.span

    def run(self, req: CliRequest, call):
        return call(req.span, _run_cli, self.ctx, list(req.argv))

    def layers(self, req, out, call):
        pass

    def check(self, req: CliRequest, out: str):
        try:
            got = json.loads(out)
        except ValueError:
            return "cli"
        return None if _matches(got, req.expected) else "cli"

    def small_requests(self):
        seen = {}
        for req in self.requests:
            seen.setdefault(req.span, req)
        return list(seen.values())

    def close(self):
        try:
            os.remove(self.cert_path)
        except FileNotFoundError:
            pass


# --------------------------------------------------------------------------
# certify_large_k and sweep_small_k: the exact layers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRequest:
    k: int
    pair: EllipsoidPair
    family: bool = False


def _roundtrip(cert: BMCertificate) -> BMCertificate:
    return BMCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))


def _is_local_min(k: int, pair: EllipsoidPair, v1: int, value: Fraction) -> bool:
    """h(v1) = value, h(v1-1) > value and h(v1+1) >= value for h the exact norm.

    The norms v1 -> h(v1, k-v1) form a discrete-convex sequence, so this
    proves that v1 is the smallest global minimizer.
    """

    def h(j: int) -> Fraction:
        return support_norm(IndexVector(j, k - j), pair).coeff

    return h(v1) == value and (v1 == 0 or h(v1 - 1) > value) and (v1 == k or h(v1 + 1) >= value)


class ExactChecks:
    """Requests of ``bm_check``; with ``certify`` also the round trip and
    ``verify_certificate``."""

    spans = frozenset(
        {
            "bm.bm_check",
            "bm.certificate_roundtrip",
            "bm.verify_certificate",
            "minkowski.sum_capacity_with_argmin",
            "minkowski.support_norm",
            "domains.ellipsoid_norm_argmin",
            "domains.ellipsoid_capacity",
            "domains.parse_domain",
            "exact.cmp_sqrt_combination",
        }
    )
    main_layer = "bm"
    certify = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.requests = self._requests(random.Random(ctx.seed))

    @staticmethod
    def speed_reference():
        return python_loop()

    @staticmethod
    def work_key(req: CheckRequest):
        return req

    def run(self, req: CheckRequest, call):
        cert = call("bm.bm_check", bm_check, req.k, req.pair)
        if not self.certify:
            return cert
        back = call("bm.certificate_roundtrip", _roundtrip, cert)
        return cert, back, call("bm.verify_certificate", verify_certificate, back)

    def layers(self, req: CheckRequest, out, call):
        """The calls ``bm_check`` is made of, one span each."""
        k, pair = req.k, req.pair
        value, v = call("minkowski.sum_capacity_with_argmin", sum_capacity_with_argmin, k, pair)
        self.ctx.stats.argmin_fracs.append(v.v1 / k)
        c1 = call("domains.ellipsoid_capacity", ellipsoid_capacity, k, pair.first)
        c2 = call("domains.ellipsoid_capacity", ellipsoid_capacity, k, pair.second)
        call("exact.cmp_sqrt_combination", cmp_sqrt_combination, value.coeff, c1.coeff, c2.coeff)
        if pair.proportional:
            call("domains.ellipsoid_norm_argmin", ellipsoid_norm_argmin, k, pair.outer_ellipsoid)
        else:
            call("minkowski.support_norm", support_norm, v, pair)
        call("domains.parse_domain", parse_domain, format_domain(pair.first))
        call("domains.parse_domain", parse_domain, format_domain(pair.second))
        if not self.certify:
            call("bm.certificate_roundtrip", _roundtrip, out)

    def check(self, req: CheckRequest, out):
        k, pair = req.k, req.pair
        if self.certify:
            cert, back, valid = out
        else:
            cert = out
            back = _roundtrip(cert)
            valid = verify_certificate(back)
        c1, c2 = ellipsoid_capacity(k, pair.first), ellipsoid_capacity(k, pair.second)
        if (cert.c_1, cert.c_2) != (c1, c2):
            return "domains"
        if cert.comparison is not cmp_sqrt_combination(cert.c_sum.coeff, c1.coeff, c2.coeff):
            return "exact"
        if pair.proportional:
            if cert.c_sum != ellipsoid_capacity(k, pair.outer_ellipsoid):
                return "minkowski"
        else:
            value, v = sum_capacity_with_argmin(k, pair)
            if value != cert.c_sum or not _is_local_min(k, pair, v.v1, value.coeff):
                return "minkowski"
        if req.family and (cert.c_sum.coeff != expected_family_coeff(k) or cert.verdict is not Verdict.VIOLATES):
            return "bm"
        if back != cert or valid is not True:
            return "bm"
        return None

    def small_requests(self):
        by_kind = {}
        for req in sorted(self.requests, key=lambda r: r.k):
            by_kind.setdefault(req.pair.proportional, req)
        return list(by_kind.values())

    def close(self):
        pass


class CertifyLargeK(ExactChecks):
    """k log-uniform over [10^2, 10^4], radii p/q with p, q <= 12.

    A request costs about k times the share of v1 = 0..k that the argmin
    scan visits, and that share, and the cost of one exact norm, vary by a
    factor of ten and of two between random pairs.  Forty random draws per
    seed make the median request swing by 30% from seed to seed, so the
    inputs are one fixed draw: eight k strata of eight pairs each, one of
    them proportional (routed through ``ellipsoid_norm_argmin``).  The
    workload seed sets their order.
    """

    name = "certify_large_k"
    certify = True
    DESIGN_SEED = 20101360
    K_STRATA = 8
    PAIRS_PER_STRATUM = 8

    def _requests(self, rng: random.Random) -> list[CheckRequest]:
        design = random.Random(self.DESIGN_SEED)
        reqs = []
        for level in range(self.K_STRATA):
            for j in range(self.PAIRS_PER_STRATUM):
                k = round(10 ** (2 + 2 * (level + design.random()) / self.K_STRATA))
                pair = _prop_pair(design) if j == 0 else _nonprop_pair(design)
                reqs.append(CheckRequest(k, pair))
        rng.shuffle(reqs)
        return reqs


class SweepSmallK(ExactChecks):
    """Every unordered pair of ellipsoids with radii p/q, p, q <= 3, at
    k = 2..4 (3,675 checks), then both paper families for k = 2..200.  The
    inputs are fixed; the seed sets their order."""

    name = "sweep_small_k"

    def _requests(self, rng: random.Random) -> list[CheckRequest]:
        radii = sorted({Fraction(p, q) for p in range(1, 4) for q in range(1, 4)})
        ells = [Ellipsoid(a, b) for a in radii for b in radii]
        reqs = [
            CheckRequest(k, EllipsoidPair.normalized(e1, e2))
            for i, e1 in enumerate(ells)
            for e2 in ells[i:]
            for k in (2, 3, 4)
        ]
        reqs += [CheckRequest(k, _family(k), family=True) for k in range(2, 201)]
        rng.shuffle(reqs)
        return reqs


# --------------------------------------------------------------------------
# oracle_numeric
# --------------------------------------------------------------------------

MEAN_WIDTH_SAMPLES = 4 << 20  # more than the estimator's 2^20 chunk
OMEGA_SAMPLES = 512
CONVEXITY_GRID = 1000


@dataclass(frozen=True)
class OracleRequest:
    kind: str
    index: int


class OracleNumeric:
    """Float oracle and kernels on random non-proportional pairs, k <= 200.

    Per pair there are five requests: the numeric support norm at the exact
    argmin and both its neighbours, ``omega_curve``, ``convexity_check``,
    ``s_derivative_signcheck`` at the argmin, and ``mean_width_estimate``
    of P(1,1) and E(1,1).  The argmins are computed in set-up and lie
    strictly inside 0..k so that both neighbours exist.  The mean-width
    generator seed is the pair's position, not the workload seed: a
    correct estimator misses the 4-stderr gate with probability 6e-5 per
    draw, and a fixed set of draws keeps that from failing a run by chance.
    """

    name = "oracle_numeric"
    main_layer = "oracle"
    spans = frozenset(
        {
            "oracle.support_norm_numeric",
            "oracle.s_derivative_signcheck",
            "minkowski.omega_curve",
            "minkowski.convexity_check",
            "bm.mean_width_estimate",
            "kernels.support_max",
            "kernels.omega_xy",
            "kernels.convexity_grid",
            "kernels.polydisk_support_split",
            "kernels.ellipsoid_support_split",
        }
    )
    PAIRS = 4
    KINDS = ("convexity", "support_norm", "omega", "signcheck", "mean_width")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        self.pairs = []
        while len(self.pairs) < self.PAIRS:
            pair, k = _nonprop_pair(rng), rng.randint(2, 200)
            _, v = sum_capacity_with_argmin(k, pair)
            if 0 < v.v1 < k:
                self.pairs.append((pair, v))
        self.requests = [OracleRequest(kind, i) for i in range(self.PAIRS) for kind in self.KINDS]

    @cached_property
    def _grid(self) -> np.ndarray:
        return 0.5 * np.pi * np.arange(1, CONVEXITY_GRID + 1) / (CONVEXITY_GRID + 1)

    @cached_property
    def _split(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, 1_000_000)

    @staticmethod
    def _neighbours(v: IndexVector) -> list[IndexVector]:
        return [IndexVector(v.v1 + d, v.v2 - d) for d in (-1, 0, 1)]

    @staticmethod
    def speed_reference():
        return python_loop()

    @staticmethod
    def work_key(req: OracleRequest):
        # Fixed grids, step and sample counts: the float work of a kind
        # does not depend on the pair.
        return req.kind

    def run(self, req: OracleRequest, call):
        pair, v = self.pairs[req.index]
        if req.kind == "support_norm":
            return [call("oracle.support_norm_numeric", support_norm_numeric, w, pair) for w in self._neighbours(v)]
        if req.kind == "omega":
            return call("minkowski.omega_curve", omega_curve, pair, OMEGA_SAMPLES)
        if req.kind == "convexity":
            return call("minkowski.convexity_check", convexity_check, pair, CONVEXITY_GRID)
        if req.kind == "signcheck":
            return call("oracle.s_derivative_signcheck", s_derivative_signcheck, v, pair)
        return [
            call("bm.mean_width_estimate", mean_width_estimate, dom, MEAN_WIDTH_SAMPLES, req.index)
            for dom in (Polydisk(1, 1), Ellipsoid(1, 1))
        ]

    def layers(self, req: OracleRequest, out, call):
        """The kernel behind each request, on the cases of
        benchmarks/bench_kernels.py: grid 4096 with 80 golden-section steps,
        1000-point angle grids, 10^6-element split arrays."""
        pair, v = self.pairs[req.index]
        a, b, c, d = (float(x) for x in pair.radii)
        if req.kind == "support_norm":
            call("kernels.support_max", _kernels.support_max, v.v1, v.v2, a, b, c, d, 4096, 80)
        elif req.kind == "omega":
            call("kernels.omega_xy", _kernels.omega_xy, a, b, c, d, self._grid)
        elif req.kind == "convexity":
            call("kernels.convexity_grid", _kernels.convexity_grid, a, b, c, d, self._grid)
        elif req.kind == "mean_width":
            call("kernels.polydisk_support_split", _kernels.polydisk_support_split, self._split, 1.5, 0.5)
            call("kernels.ellipsoid_support_split", _kernels.ellipsoid_support_split, self._split, 1.5, 0.5)

    def check(self, req: OracleRequest, out):
        pair, v = self.pairs[req.index]
        if req.kind == "support_norm":
            for w, numeric in zip(self._neighbours(v), out):
                exact = float(support_norm(w, pair))
                gap = abs(exact - numeric) / exact
                self.ctx.stats.oracle_gaps.append(gap)
                if not gap <= ORACLE_GAP:
                    return "oracle"
            return None
        if req.kind == "omega":
            a, b, c, d = pair.radii
            ok = (
                len(out) == OMEGA_SAMPLES + 1
                and (out[0].psi, out[0].x1, out[0].x2) == (0.0, math.pi * float((a + c) ** 2), 0.0)
                and (out[-1].x1, out[-1].x2) == (0.0, math.pi * float((b + d) ** 2))
                and all(math.isfinite(p.x1) and math.isfinite(p.x2) for p in out)
            )
            return None if ok else "minkowski"
        if req.kind == "convexity":
            return None if out.ok and out.grid == CONVEXITY_GRID else "minkowski"
        if req.kind == "signcheck":
            return None if out.ok else "oracle"
        poly, ball = out
        ok = abs(poly.mean - 4 / 3) <= 4 * poly.stderr and abs(ball.mean - 1.0) <= 1e-12
        return None if ok else "bm"

    def small_requests(self):
        return self.requests[: len(self.KINDS)]

    def close(self):
        pass


WORKLOADS = {cls.name: cls for cls in (CliExact, CertifyLargeK, SweepSmallK, OracleNumeric)}
