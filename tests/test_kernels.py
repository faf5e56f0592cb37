import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capacity_lab
from capacity_lab import (
    ConvexityReport,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    MeanWidthEstimate,
    Polydisk,
    SignCheckReport,
    _kernels,
    convexity_check,
    even_family,
    mean_width_estimate,
    odd_family,
    s_derivative_signcheck,
    support_norm,
    support_norm_numeric,
)
from capacity_lab._kernels import (
    _critical,
    _fd_derivative,
    _s_over_pi,
    _s_prime_over_pi,
    golden_max,
)
from conftest import (
    float_radii,
    golden_max_all_steps,
    power_pair,
    random_nonprop_pair,
    random_radius,
    record_contract,
    s_prime_float,
)

SRC = Path(__file__).resolve().parent.parent / "src"
F = Fraction
EVEN2 = even_family(2)
ODD3 = odd_family(3)


def _support_max_reference(v1, v2, a, b, c, d, grid, iters):
    # Scalar loop the vectorized support_max replaced: dense scan, then
    # golden-section ascent on the winning bracket.
    def F(psi):
        cp, sp = math.cos(psi), math.sin(psi)
        f = math.sqrt((c / a) ** 2 * cp * cp + (d / b) ** 2 * sp * sp)
        g = cp * (a + c * c / (a * f))
        h = sp * (b + d * d / (b * f))
        return math.pi * (v1 * g * g + v2 * h * h)

    step = 0.5 * math.pi / grid
    besti = max(range(grid + 1), key=lambda i: F(step * i))
    lo, hi = step * max(besti - 1, 0), step * min(besti + 1, grid)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        if F(x1) < F(x2):
            lo = x1
        else:
            hi = x2
    return max(F(step * besti), F(lo), F(hi))


def _support_max_psi(v1, v2, a, b, c, d, grid, iters):
    # support_max as it was on the psi axis, the reference of the f axis: a scan
    # of grid+1 uniform angles psi, then all iters golden-section steps in psi.
    # Its grid cannot see a maximizer that a large radius ratio crowds into a
    # sliver of psi (off by 4.4e-6 at ratio 2^64), so it is compared only on
    # the small ratios of random_nonprop_pair.
    v1, v2 = float(v1), float(v2)
    _, _, _, g, h = _kernels.gh_profiles(a, b, c, d, 0.5 * math.pi * np.arange(grid + 1) / grid)
    vals = np.pi * (v1 * g * g + v2 * h * h)
    besti = int(np.argmax(vals))
    r2 = (c * c) / (a * a)
    s2 = (d * d) / (b * b)

    def objective(psi):
        cp = math.cos(psi)
        sp = math.sin(psi)
        f = math.sqrt(r2 * cp * cp + s2 * sp * sp)
        g = cp * (a + c * c / (a * f))
        h = sp * (b + d * d / (b * f))
        return math.pi * (v1 * g * g + v2 * h * h)

    lo = 0.5 * math.pi * max(besti - 1, 0) / grid
    hi = 0.5 * math.pi * min(besti + 1, grid) / grid
    return max(float(vals[besti]), golden_max_all_steps(objective, lo, hi, iters))


def _convexity_grid_psi(a, b, c, d, psis):
    # convexity_grid as it was in the psi form, the reference of the f form: C'' through
    # g and g', with the g' it also returned and that convexity_check required negative
    cp, sp, f, g, _ = _kernels.gh_profiles(a, b, c, d, psis)
    r2 = (c * c) / (a * a)
    s2 = (d * d) / (b * b)
    gprime = -sp * (a + c * c / (a * f)) + cp * cp * sp * (c * c / (a * f**3)) * (r2 - s2)
    denom = a * a * f + c * c
    c1 = -(b * b * f + d * d) / denom
    c2 = (a * a * b * b * (r2 - s2) ** 2 * sp * cp) / (2.0 * np.pi * g * gprime * f * denom**2)
    return c1, c2, gprime


def _support_max_cold(*args):
    # support_max with its one-entry cache emptied first, so the columns are built afresh
    _kernels._columns.cache_clear()
    return _kernels.support_max(*args)


@dataclass(frozen=True)
class _DataclassSample:
    psi: float
    x1: float
    x2: float


def _omega_curve_reference(pair, samples):
    # omega_curve's sampling as it was before OmegaSample became a tuple: one
    # frozen dataclass per point, fed by the numpy scalars of zip
    a, b, c, d = pair.radii
    psis = 0.5 * math.pi * np.arange(samples + 1) / samples
    x1, x2 = _kernels.omega_xy(float(a), float(b), float(c), float(d), psis)
    ends = math.pi * float((a + c) ** 2), math.pi * float((b + d) ** 2)
    out = [_DataclassSample(float(p), float(u), float(w)) for p, u, w in zip(psis, x1, x2)]
    out[0] = _DataclassSample(0.0, ends[0], 0.0)
    out[-1] = _DataclassSample(float(psis[-1]), 0.0, ends[1])
    return out


def ratio_pair(j: int) -> EllipsoidPair:
    """E(1, 9/7 2^-j) + E(11/7, 13/7): radius ratio about 2^j."""
    return EllipsoidPair.normalized(Ellipsoid(1, F(9, 7) / 2**j), Ellipsoid(F(11, 7), F(13, 7)))


def s_float(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """S(f) in floats, straight from ``_s_over_pi``."""
    return math.pi * _s_over_pi(*float_radii(pair))(v.v1, v.v2, f)


def _cases(rng, n):
    for _ in range(n):
        pair = random_nonprop_pair(rng)
        k = rng.randint(1, 10)
        v1 = rng.randint(0, k)
        yield v1, k - v1, *(float(x) for x in pair.radii)


class TestSelection:
    def test_flag_consistency(self):
        assert _kernels.backend_name() == "numpy"


class TestAgainstScalarReference:
    def test_gh_profiles(self, rng):
        psis = 0.5 * np.pi * np.arange(1, 64) / 64
        for _, _, a, b, c, d in _cases(rng, 6):
            _, _, f, g, h = _kernels.gh_profiles(a, b, c, d, psis)
            for psi, fi, gi, hi in zip(psis, f, g, h):
                cp, sp = math.cos(psi), math.sin(psi)
                want_f = math.sqrt((c / a) ** 2 * cp * cp + (d / b) ** 2 * sp * sp)
                assert fi == pytest.approx(want_f, rel=1e-13)
                assert gi == pytest.approx(cp * (a + c * c / (a * want_f)), rel=1e-13)
                assert hi == pytest.approx(sp * (b + d * d / (b * want_f)), rel=1e-13)

    def test_support_max(self, rng):
        for v1, v2, a, b, c, d in _cases(rng, 12):
            got = _kernels.support_max(v1, v2, a, b, c, d, 512, 60)
            assert got == pytest.approx(_support_max_reference(v1, v2, a, b, c, d, 512, 60), rel=1e-12)

    def test_f_axis_agrees_with_the_psi_axis(self, rng, golden_early_stop_checked):
        for _ in range(200):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            args = v1, k - v1, *(float(x) for x in pair.radii), 4096, 80
            assert _kernels.support_max(*args) == pytest.approx(_support_max_psi(*args), rel=1e-12)

    def test_support_max_equals_the_per_call_grid(self, rng, golden_early_stop_checked):
        # 64, 512 and 4096 interleaved with two more grids, so that the cached
        # columns are evicted and rebuilt between calls
        grids = [64, 4096, 512, 65, 4096, 1000, 64, 512]
        for i, (v1, v2, a, b, c, d) in enumerate(_cases(rng, 120)):
            grid = grids[i % len(grids)]
            got = _kernels.support_max(v1, v2, a, b, c, d, grid, 80)
            assert got == _support_max_cold(v1, v2, a, b, c, d, grid, 80)

    def test_convexity_grid_agrees_with_the_psi_form(self, rng):
        psis = 0.5 * np.pi * np.arange(1, 1001) / 1001
        for _ in range(100):
            a, b, c, d = (float(x) for x in random_nonprop_pair(rng).radii)
            c1, c2 = _kernels.convexity_grid(a, b, c, d, psis)
            want1, want2, gprime = _convexity_grid_psi(a, b, c, d, psis)
            assert np.array_equal(c1, want1)
            assert np.allclose(c2, want2, rtol=1e-12, atol=0)
            assert np.all(gprime < 0)

    def test_support_splits(self):
        p = np.linspace(0.0, 1.0, 1001)
        poly = _kernels.polydisk_support_split(p, 1.5, 0.5)
        ell = _kernels.ellipsoid_support_split(p, 1.5, 0.5)
        for pi, got_p, got_e in zip(p, poly, ell):
            assert got_p == pytest.approx(1.5 * math.sqrt(pi) + 0.5 * math.sqrt(1.0 - pi), rel=1e-15)
            assert got_e == pytest.approx(math.sqrt(0.25 + 2.0 * pi), rel=1e-15)

    def test_in_place_splits_match_the_expressions_and_leave_p(self):
        p = np.random.default_rng(7).random(4099)
        p[:3] = 0.0, 1.0, 0.5
        before = p.copy()
        for a, b in [(1.5, 0.5), (1.0, 1.0), (0.3, 7.0)]:
            poly = _kernels.polydisk_support_split(p, a, b)
            ell = _kernels.ellipsoid_support_split(p, a, b)
            assert np.array_equal(poly, a * np.sqrt(p) + b * np.sqrt(1.0 - p))
            assert np.array_equal(ell, np.sqrt(b * b + (a * a - b * b) * p))
            out, rest = np.full_like(p, np.nan), np.full_like(p, np.nan)
            assert _kernels.polydisk_support_split(p, a, b, out=out, rest=rest) is out
            assert np.array_equal(out, poly)
            assert _kernels.ellipsoid_support_split(p, a, b, out=out, rest=rest) is out
            assert np.array_equal(out, ell)
        assert np.array_equal(p, before)


class TestAngleTable:
    """The grid of ``_columns``: t = sin^2 psi at the angles psi whose f are log-spaced."""

    def test_cached_arrays_are_read_only(self, rng):
        radii = [float(x) for x in random_nonprop_pair(rng).radii]
        for grid in (64, 4096):
            t, x, y, _ = _kernels._columns(*radii, grid)
            assert _kernels._columns(*radii, grid)[0] is t
            assert _kernels._columns.cache_info().currsize == 1
            assert t.shape == x.shape == y.shape == (grid + 1,)
            for arr in (t, x, y):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 2.0
            assert t[0] == 0.0 and t[-1] == 1.0

    @pytest.mark.parametrize("grid", [512, 1000])
    def test_table_matches_the_angles(self, rng, grid):
        for _ in range(5):
            a, b, c, d = radii = [float(x) for x in random_nonprop_pair(rng).radii]
            t, x, y, _ = _kernels._columns.__wrapped__(*radii, grid)
            assert np.all(np.diff(t) > 0)
            # f is log-spaced from c/a to d/b
            f = np.sqrt((c / a) ** 2 * (1 - t) + (d / b) ** 2 * t)
            want = np.log(c / a) + np.arange(grid + 1) / grid * np.log((d / b) / (c / a))
            assert np.allclose(np.log(f), want, rtol=0, atol=1e-12)
            # X and Y are g^2 and h^2 of the psi form at psi = asin(sqrt(t)), up to the
            # round-off of cos(asin(sqrt(t))) near t = 1, absolute on the scale of the corners
            _, _, _, g, h = _kernels.gh_profiles(a, b, c, d, np.arcsin(np.sqrt(t)))
            assert np.allclose(x, g * g, rtol=1e-12, atol=1e-12 * x[0])
            assert np.allclose(y, h * h, rtol=1e-12, atol=1e-12 * y[-1])
            assert (x[0], y[0], x[-1], y[-1]) == ((a + c) ** 2, 0.0, 0.0, (b + d) ** 2)

    def test_import_builds_no_table(self):
        code = "from capacity_lab import _kernels as k; print(k._columns.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (res.returncode, res.stdout) == (0, "0\n"), res.stderr


class TestProfile:
    """The pair's columns X and Y, kept in the one-entry cache ``_columns``."""

    def test_interleaved_pairs_and_grids(self, rng):
        # the neighbour check's v-1, v, v+1 of one pair, then a second pair,
        # then another grid, then the first pair again: every call misses or
        # hits the one-entry cache and must still equal a call with it emptied
        calls = []
        for _ in range(10):
            first, second = ([float(x) for x in random_nonprop_pair(rng).radii] for _ in range(2))
            k = rng.randint(2, 200)
            v1 = rng.randint(1, k - 1)
            calls += [(v1 + dv, k - v1 - dv, *first, 4096) for dv in (-1, 0, 1)]
            calls += [(v1, k - v1, *second, 4096), (v1, k - v1, *second, 512), (v1, k - v1, *first, 4096)]
        warm = [_kernels.support_max(*args, 80) for args in calls]
        assert _kernels._columns.cache_info().currsize == 1
        assert warm == [_support_max_cold(*args, 80) for args in calls]

    def test_cached_profile_is_read_only(self, rng):
        _, _, a, b, c, d = next(_cases(rng, 1))
        t, x, y, xy = _kernels._columns(a, b, c, d, 512)
        assert _kernels._columns(a, b, c, d, 512)[1] is x
        for got, want in zip((t, x, y), _kernels._columns.__wrapped__(a, b, c, d, 512)):
            assert np.array_equal(got, want)
        # the scan's columns and the refinement's scalar closure are one formula
        assert all(xy(float(ti)) == (xi, yi) for ti, xi, yi in zip(t[1:-1], x[1:-1], y[1:-1]))
        for arr in (t, x, y):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2.0


class TestOmegaSamples:
    @pytest.mark.parametrize("samples", [2, 512, 10**5])
    def test_equal_to_the_dataclass_samples(self, rng, samples):
        for _ in range(20):
            pair = random_nonprop_pair(rng)
            want = [(p.psi, p.x1, p.x2) for p in _omega_curve_reference(pair, samples)]
            assert _kernels.omega_curve(pair, samples) == want

    def test_samples_are_immutable_named_tuples(self, rng):
        point = _kernels.omega_curve(random_nonprop_pair(rng), 4)[1]
        assert capacity_lab.OmegaSample is _kernels.OmegaSample
        assert type(point) is _kernels.OmegaSample
        assert point == (point.psi, point.x1, point.x2) and point[1] == point.x1
        with pytest.raises(AttributeError):
            point.x1 = 0.0
        with pytest.raises(TypeError):
            point[1] = 0.0


# (report class, positional arguments, the same with one field changed, the repr a frozen dataclass gave)
FLOAT_REPORTS = [
    (ConvexityReport, (True, -0.5, -0.25, 64), (True, -0.5, -0.25, 128),
     "ConvexityReport(ok=True, worst_C1=-0.5, worst_C2=-0.25, grid=64)"),
    (
        SignCheckReport,
        (False, 4096, 3, 1e-3, 1e-9, None, False, False),
        (False, 4096, 3, 1e-3, 1e-9, 1.5, False, False),
        "SignCheckReport(ok=False, points=4096, sign_mismatches=3, max_abs_err=0.001, max_allowed_err=1e-09, "
        "f0=None, f0_interior=False, f0_is_max=False)",
    ),
    (MeanWidthEstimate, (1.5, 0.01, 1000, 3), (1.5, 0.01, 1000, 4),
     "MeanWidthEstimate(mean=1.5, stderr=0.01, samples=1000, seed=3)"),
]


@pytest.mark.parametrize("cls, args, changed, text", FLOAT_REPORTS, ids=[r[0].__name__ for r in FLOAT_REPORTS])
def test_float_report_contract(cls, args, changed, text):
    """The float reports keep what their frozen dataclasses gave, now from ``exact._Record``."""
    record_contract(cls, args, changed, text)


class TestGoldenMax:
    def test_interior_peak(self):
        assert _kernels.golden_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 80) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_peak(self):
        assert _kernels.golden_max(lambda x: x, 0.0, 2.0, 5) == 2.0

    def test_early_stop_returns_what_all_steps_return(self, rng):
        # unimodal sine arches on random brackets, some of them only a few ulps wide
        for i in range(1000):
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + (rng.uniform(1e-6, 5.0) if i % 4 else 8 * math.ulp(lo))
            peak, width = rng.uniform(lo, hi), rng.uniform(hi - lo, 4 * (hi - lo))

            def fn(x, peak=peak, width=width):
                return math.sin(0.5 * math.pi + (x - peak) / width)

            for iters in (5, 40, 80, 200):
                assert _kernels.golden_max(fn, lo, hi, iters) == golden_max_all_steps(fn, lo, hi, iters)

    def test_stops_once_no_float_is_left_inside(self):
        calls = []
        _kernels.golden_max(lambda x: calls.append(x) or -((x - 0.3) ** 2), 0.0, 1.0, 10**6)
        assert len(calls) < 100


# moved from tests/test_oracle.py, where every test ran under golden_early_stop_checked
@pytest.mark.usefixtures("golden_early_stop_checked")
class TestOracleConstants:
    def test_scan_256_grid_4096_and_80_golden_steps(self, rng, monkeypatch):
        # another scan or 60 golden-section steps mostly give the same floats, so the call itself is checked too
        calls, support_max = [], _kernels.support_max
        monkeypatch.setattr(_kernels, "support_max", lambda *args: calls.append(args[-2:]) or support_max(*args))
        support_norm_numeric(IndexVector(1, 1), EVEN2)
        assert calls == [(256, 80)]
        monkeypatch.undo()
        for _ in range(50):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            floats = [float(x) for x in pair.radii]
            assert support_norm_numeric(v, pair) == _kernels.support_max(v1, k - v1, *floats, 256, 80)
            assert s_derivative_signcheck(v, pair).points == 4096


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestSupportNormNumeric:
    def test_even_family_value(self):
        got = support_norm_numeric(IndexVector(1, 1), EVEN2)
        assert got == pytest.approx(6.5 * math.pi, rel=1e-9)

    def test_odd_family_value(self):
        got = support_norm_numeric(IndexVector(2, 1), ODD3)
        assert got == pytest.approx(float(F(50, 9)) * math.pi, rel=1e-9)

    def test_endpoint_vectors_tight(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 10)
            lo = support_norm_numeric(IndexVector(k, 0), pair)
            hi = support_norm_numeric(IndexVector(0, k), pair)
            assert lo == pytest.approx(k * math.pi * float((a + c) ** 2), rel=1e-12)
            assert hi == pytest.approx(k * math.pi * float((b + d) ** 2), rel=1e-12)

    def test_proportional_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(2, 2))
        with pytest.raises(ValueError):
            support_norm_numeric(IndexVector(1, 1), prop)

    def test_random_agreement_with_exact(self, rng):
        for _ in range(30):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 10)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            exact = float(support_norm(v, pair))
            numeric = support_norm_numeric(v, pair)
            assert abs(exact - numeric) / exact <= 1e-9

    def test_the_257_point_scan_is_within_2e_15_of_the_exact_norm(self, rng):
        # the scan only brackets the one maximizer: a 17-point scan is off by 2.3% on the ratio pairs
        cases = []
        for _ in range(300):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            cases.append((IndexVector(v1, k - v1), pair))
        for j in range(0, 251, 10):
            cases += [(IndexVector(*v), ratio_pair(j)) for v in ((4, 8), (1, 1), (150, 49))]
        for v, pair in cases:
            exact = float(support_norm(v, pair))
            assert abs(support_norm_numeric(v, pair) - exact) <= 2e-15 * exact, (v, pair.radii)


# moved from tests/test_oracle.py, where every test ran under golden_early_stop_checked
@pytest.mark.usefixtures("golden_early_stop_checked")
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRange:
    """The numeric norm agrees with the exact one, or refuses radii whose values leave float range."""

    # the norm itself is not a normal float: about 10^321 at 10^160, and
    # subnormal (about 10^-319 and 10^-339) at 10^-160 and 10^-170
    @pytest.mark.parametrize("e", [160, -170, -160])
    def test_support_norm_numeric_refuses(self, e):
        with pytest.raises(ValueError, match="^support_norm_numeric of these radii lies beyond float range$"):
            support_norm_numeric(IndexVector(3, 4), power_pair(e))

    @pytest.mark.parametrize("e", [77, 80, -150, 150, -153])
    def test_support_norm_numeric_in_range(self, e):
        v, pair = IndexVector(3, 4), power_pair(e)
        assert support_norm_numeric(v, pair) == pytest.approx(float(support_norm(v, pair)), rel=1e-9)

    # the psi grid was off by 4.4e-6 at ratio 2^64 and by 6.6% at 2^128, silently
    @pytest.mark.parametrize("j", [64, 128])
    def test_support_norm_numeric_at_a_large_radius_ratio(self, j):
        v, pair = IndexVector(4, 8), ratio_pair(j)
        assert support_norm_numeric(v, pair) == pytest.approx(float(support_norm(v, pair)), rel=1e-9)


# moved from tests/test_oracle.py, where every test ran under golden_early_stop_checked
@pytest.mark.usefixtures("golden_early_stop_checked")
class TestRatioAndScale:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ratio_sweep(self, rng):
        # radius ratios from 1 to past 2^256: within 2^255 the norm agrees with
        # the exact one, beyond it is refused, and no float warns on the way
        shapes = [(-1, 1, 1, -1), (0, -1, -1, 0), (1, 0, 0, 1), (0, 1, 1, -1), (1, -1, 0, 0), (0, 0, 0, -1)]
        agreed = refused = 0
        for j in [*range(0, 256, 5), 127, 128, 255, 256, 257, 300]:
            for shape in shapes:
                radii = [random_radius(rng) * F(2) ** (s * j // 2) for s in shape]
                pair = EllipsoidPair.normalized(Ellipsoid(*radii[:2]), Ellipsoid(*radii[2:]))
                if pair.proportional:
                    continue
                for v in (IndexVector(4, 8), IndexVector(1, 1), IndexVector(150, 49), IndexVector(0, 5)):
                    if max(pair.radii) <= min(pair.radii) * 2**255:
                        exact = float(support_norm(v, pair))
                        assert abs(support_norm_numeric(v, pair) - exact) <= 1e-9 * exact, (j, shape, v)
                        agreed += 1
                    else:
                        with pytest.raises(ValueError, match="^support_norm_numeric of these radii lies beyond"):
                            support_norm_numeric(v, pair)
                        refused += 1
        assert agreed > 1000 and refused > 20

    def test_nearly_proportional_pairs(self, rng):
        # c/a and d/b 10^-k apart: the floats f cannot tell them apart for k >= 16
        for k in (4, 8, 12, 16, 20, 300):
            for _ in range(5):
                a, b, lam = random_radius(rng), random_radius(rng), random_radius(rng)
                pair = EllipsoidPair.normalized(Ellipsoid(a, b), Ellipsoid(lam * a, lam * b * (1 + F(1, 10**k))))
                for v in (IndexVector(1, 1), IndexVector(3, 4), IndexVector(100, 101)):
                    exact = float(support_norm(v, pair))
                    assert abs(support_norm_numeric(v, pair) - exact) <= 1e-12 * exact, (k, pair.radii, v)

    def test_scale_by_a_power_of_two(self, rng):
        # the radii times 2^j give the same float times 4^j while that is a normal float
        for _ in range(4):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            norm = support_norm_numeric(v, pair)
            for j in [*range(-300, 301, 3), -520, -512, 505, 512]:
                scaled = pair.scaled(F(2) ** j)
                if sys.float_info.min_exp <= math.frexp(norm)[1] + 2 * j <= sys.float_info.max_exp:
                    assert support_norm_numeric(v, scaled) == math.ldexp(norm, 2 * j), j
                else:
                    with pytest.raises(ValueError, match="^support_norm_numeric of these radii lies beyond"):
                        support_norm_numeric(v, scaled)


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestUnimodality:
    def test_objective_has_single_peak(self, rng):
        # the psi-grid profile must rise to one bracket and fall after it;
        # tolerance absorbs float noise on near-flat stretches
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            a, b, c, d = (float(x) for x in pair.radii)
            n = 512
            vals = []
            for j in range(n + 1):
                psi = 0.5 * math.pi * j / n
                cp, sp = math.cos(psi), math.sin(psi)
                f = math.sqrt((c / a) ** 2 * cp * cp + (d / b) ** 2 * sp * sp)
                g = cp * (a + c * c / (a * f))
                h = sp * (b + d * d / (b * f))
                vals.append(math.pi * (v.v1 * g * g + v.v2 * h * h))
            peak = max(range(n + 1), key=vals.__getitem__)
            slack = 1e-9 * vals[peak]
            assert all(vals[j + 1] >= vals[j] - slack for j in range(peak))
            assert all(vals[j + 1] <= vals[j] + slack for j in range(peak, n))


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestSProfile:
    def test_lower_endpoint(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            v = IndexVector(rng.randint(0, 5), rng.randint(1, 5))
            got = s_float(v, pair, float(c) / float(a))
            assert got == pytest.approx(v.v1 * math.pi * float((a + c) ** 2), rel=1e-10, abs=1e-10)

    def test_upper_endpoint(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            v = IndexVector(rng.randint(1, 5), rng.randint(0, 5))
            got = s_float(v, pair, float(d) / float(b))
            assert got == pytest.approx(v.v2 * math.pi * float((b + d) ** 2), rel=1e-10, abs=1e-10)

    def test_interior_critical_value_matches_exact(self):
        # even family at v = (1,1): f0 = 1 is interior, S(f0) = 13 pi / 2
        assert s_float(IndexVector(1, 1), EVEN2, 1.0) == pytest.approx(6.5 * math.pi, rel=1e-10)

    def test_f_domain_max_equals_psi_domain_max(self, rng):
        for _ in range(15):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 8)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            lo, hi = float(c) / float(a), float(d) / float(b)
            grid = [lo + (hi - lo) * j / 512 for j in range(513)]
            best_f = max(grid, key=lambda f: s_float(v, pair, f))
            j = grid.index(best_f)
            blo, bhi = grid[max(j - 1, 0)], grid[min(j + 1, 512)]
            f_max = golden_max(lambda f: s_float(v, pair, f), blo, bhi, 80)
            psi_max = support_norm_numeric(v, pair)
            assert f_max == pytest.approx(psi_max, rel=1e-9)


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestSDerivative:
    def test_even_family_sign_change_at_one(self):
        report = s_derivative_signcheck(IndexVector(1, 1), EVEN2)
        assert report.ok
        assert report.f0 == pytest.approx(1.0)
        assert report.f0_interior and report.f0_is_max
        assert report.sign_mismatches == 0
        # the array reductions come back as plain Python scalars
        assert type(report.ok) is bool and type(report.sign_mismatches) is int
        assert type(report.max_abs_err) is float and type(report.max_allowed_err) is float
        # increasing before f0, decreasing after
        assert s_prime_float(IndexVector(1, 1), EVEN2, 0.9) > 0
        assert s_prime_float(IndexVector(1, 1), EVEN2, 1.1) < 0

    def test_axis_vector_constant_sign(self):
        report = s_derivative_signcheck(IndexVector(3, 0), EVEN2)
        assert report.ok
        assert not report.f0_interior
        a, b, c, d = (float(x) for x in EVEN2.radii)
        lo, hi = c / a, d / b
        samples = [lo + (hi - lo) * j / 40 for j in range(1, 40)]
        signs = {s_prime_float(IndexVector(3, 0), EVEN2, f) > 0 for f in samples}
        assert len(signs) == 1

    def test_finite_difference_agreement_random(self, rng):
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            report = s_derivative_signcheck(IndexVector(v1, k - v1), pair)
            assert report.ok, (pair, v1, k, report)

    def test_proportional_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(2, 1), Ellipsoid(4, 2))
        with pytest.raises(ValueError):
            s_derivative_signcheck(IndexVector(1, 1), prop)


def reference_signcheck(v: IndexVector, pair: EllipsoidPair, n: int = 4096) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples n interior points of (c/a, d/b).  At each point the
    five-point finite difference must match the closed form within
    max(1e-6, 1e-6 |S'|), and the signs must agree wherever |S'| > 1e-6.
    When f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    """
    # The scalar loop that the array form of s_derivative_signcheck replaced, kept verbatim.
    a, b, c, d = radii = float_radii(pair)
    lo, hi = c / a, d / b
    span = hi - lo
    s_over_pi, s_prime_over_pi = _s_over_pi(*radii), _s_prime_over_pi(*radii)

    def S(f: float) -> float:
        return math.pi * s_over_pi(v.v1, v.v2, f)

    def Sp(f: float) -> float:
        return math.pi * s_prime_over_pi(v.v1, v.v2, f)

    sign_mismatches = 0
    max_abs_err = 0.0
    max_allowed = 0.0
    ok = True
    for j in range(1, n + 1):
        f = lo + span * j / (n + 1)
        # step scales with f: S varies on the scale of f near the left end
        h = min(1e-3 * f, 0.25 * min(f - lo, hi - f))
        if h <= 0.0:
            continue
        fd = _fd_derivative(S, f, h)
        closed = Sp(f)
        err = abs(fd - closed)
        allowed = max(1e-6, 1e-6 * abs(closed))
        if err > max_abs_err:
            max_abs_err = err
            max_allowed = allowed
        if err > allowed:
            ok = False
        if abs(closed) > 1e-6 and fd * closed < 0:
            sign_mismatches += 1
            ok = False

    D, N = _critical(v.v1, v.v2, *pair.radii)
    f0 = float(N / D) if D != 0 else None
    f0_interior = f0 is not None and D < 0 and lo < f0 < hi
    f0_is_max = False
    if f0_interior:
        eps = 1e-5 * span
        left = max(f0 - eps, lo)
        right = min(f0 + eps, hi)
        f0_is_max = S(f0) >= S(left) and S(f0) >= S(right)
        if not f0_is_max:
            ok = False

    return SignCheckReport(
        ok=ok,
        points=n,
        sign_mismatches=sign_mismatches,
        max_abs_err=max_abs_err,
        max_allowed_err=max_allowed,
        f0=f0,
        f0_interior=f0_interior,
        f0_is_max=f0_is_max,
    )


def reference_array_signcheck(v: IndexVector, pair: EllipsoidPair, n: int = 4096) -> SignCheckReport:
    # s_derivative_signcheck before f**3 was shared in S' and the filter on
    # h > 0 became conditional, kept verbatim with its own S'.
    import numpy as np

    a, b, c, d = radii = float_radii(pair)
    lo, hi = c / a, d / b
    span = hi - lo
    s_over_pi = _s_over_pi(*radii)
    dp = (d / b) ** 2 - (c / a) ** 2
    K = (c * c * d * d) / (a * a * b * b)

    def s_prime_over_pi(v1, v2, f):
        D, N = _critical(v1, v2, a, b, c, d)
        return 2 / (dp * f**3) * (f**3 + K) * (D * f - N)

    def S(f):
        return math.pi * s_over_pi(v.v1, v.v2, f)

    f = lo + span * np.arange(1, n + 1) / (n + 1)
    h = np.minimum(1e-3 * f, 0.25 * np.minimum(f - lo, hi - f))
    keep = h > 0.0
    f, h = f[keep], h[keep]
    fd = _fd_derivative(S, f, h)
    closed = math.pi * s_prime_over_pi(v.v1, v.v2, f)
    err = np.abs(fd - closed)
    allowed = np.maximum(1e-6, 1e-6 * np.abs(closed))
    sign_mismatches = int(np.count_nonzero((np.abs(closed) > 1e-6) & (fd * closed < 0)))
    ok = sign_mismatches == 0 and not np.any(err > allowed)
    max_abs_err = max_allowed = 0.0
    if err.size and err.max() > 0.0:
        worst = int(np.argmax(err))
        max_abs_err, max_allowed = float(err[worst]), float(allowed[worst])

    D, N = _critical(v.v1, v.v2, *pair.radii)
    f0 = float(N / D) if D != 0 else None
    f0_interior = f0 is not None and D < 0 and lo < f0 < hi
    f0_is_max = False
    if f0_interior:
        eps = 1e-5 * span
        left = max(f0 - eps, lo)
        right = min(f0 + eps, hi)
        f0_is_max = S(f0) >= S(left) and S(f0) >= S(right)
        if not f0_is_max:
            ok = False

    return SignCheckReport(
        ok=ok,
        points=n,
        sign_mismatches=sign_mismatches,
        max_abs_err=max_abs_err,
        max_allowed_err=max_allowed,
        f0=f0,
        f0_interior=f0_interior,
        f0_is_max=f0_is_max,
    )


# radii p/q with p, q <= 20, as random_nonprop_pair draws them
small_radius_st = st.builds(F, st.integers(1, 20), st.integers(1, 20))
small_ellipsoid_st = st.builds(Ellipsoid, small_radius_st, small_radius_st)
small_nonprop_pairs_st = st.builds(EllipsoidPair.normalized, small_ellipsoid_st, small_ellipsoid_st).filter(
    lambda p: not p.proportional
)


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestSignCheckAgainstReference:
    @pytest.mark.parametrize("grid", [4096])
    @settings(max_examples=100, deadline=None)
    @given(pair=small_nonprop_pairs_st, k=st.integers(1, 200), data=st.data())
    def test_array_form_matches_the_scalar_loop(self, grid, pair, k, data):
        v1 = data.draw(st.integers(0, k))
        v = IndexVector(v1, k - v1)
        got, want = s_derivative_signcheck(v, pair), reference_signcheck(v, pair, grid)
        fields = ("ok", "points", "sign_mismatches", "f0", "f0_interior", "f0_is_max")
        assert [getattr(got, x) for x in fields] == [getattr(want, x) for x in fields]
        # the sums and powers round differently, so the largest error may move by round-off
        assert abs(got.max_abs_err - want.max_abs_err) <= 1e-3 * want.max_allowed_err


@pytest.mark.usefixtures("golden_early_stop_checked")
class TestSignCheckAgainstArrayReference:
    def test_report_equals_the_pre_change_array_form(self, rng):
        for _ in range(60):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            assert s_derivative_signcheck(v, pair) == reference_array_signcheck(v, pair)

    @pytest.mark.parametrize("gap", [F(1, 10**15), F(1, 10**16)])
    def test_report_equals_the_pre_change_array_form_with_zero_steps(self, gap):
        # c/a and d/b so close in float that some grid points (1e-15) or all of
        # them (1e-16) round onto an end: their step is 0 and they are dropped
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1 + gap))
        a, b, c, d = float_radii(pair)
        lo, hi = c / a, d / b
        f = [lo + (hi - lo) * j / 4097 for j in range(1, 4097)]
        dropped = {F(1, 10**15): 818, F(1, 10**16): 4096}[gap]
        assert sum(min(1e-3 * x, 0.25 * min(x - lo, hi - x)) <= 0.0 for x in f) == dropped
        for v1, v2 in [(1, 1), (3, 0), (2, 5)]:
            v = IndexVector(v1, v2)
            assert s_derivative_signcheck(v, pair) == reference_array_signcheck(v, pair)


@pytest.mark.filterwarnings("error")
class TestFloatGuard:
    """``_float_range``: numpy raises on overflow, division by zero and invalid operations inside
    it, and every ArithmeticError leaves it as the caller's ValueError, with no warning on the way."""

    @pytest.mark.parametrize("error", [FloatingPointError, OverflowError, ZeroDivisionError])
    def test_each_arithmetic_error_becomes_the_value_error(self, error):
        with pytest.raises(ValueError, match="^op of these radii lies beyond float range$") as info:
            with _kernels._float_range("op of these radii lies beyond float range"):
                raise error
        assert info.value.__suppress_context__

    def test_numpy_raises_inside_and_the_error_state_is_restored(self):
        before = np.geterr()
        for operation in (lambda: np.float64(1e300) * 1e300, lambda: np.ones(2) / 0.0, lambda: np.sqrt(-np.ones(2))):
            with pytest.raises(ValueError, match="^beyond$"):
                with _kernels._float_range("beyond"):
                    operation()
            assert np.geterr() == before

    def test_other_errors_pass_through(self):
        with pytest.raises(KeyError):
            with _kernels._float_range("beyond"):
                raise KeyError("k")

    def test_convexity_check_refuses_an_overflow_without_a_warning(self):
        # the parent warned "overflow encountered in multiply" here before its isfinite test refused
        pair = EllipsoidPair.normalized(Ellipsoid(1, 2**340), Ellipsoid(1, 1))
        with pytest.raises(ValueError, match="^convexity_check of these radii lies beyond float range$"):
            convexity_check(pair, 64)

    def test_convexity_check_refuses_an_empty_grid(self):
        with pytest.raises(ValueError, match="^grid must be >= 1, got 0$"):
            convexity_check(EVEN2, 0)

    def test_signcheck_refuses_inside_its_own_arithmetic(self):
        # _scaled_radii takes the ratio 2^300; then a^2 b^2 underflows to 0 and K divides by it
        pair = EllipsoidPair.normalized(Ellipsoid(1, 2**300), Ellipsoid(1, 1))
        with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond float range$"):
            s_derivative_signcheck(IndexVector(3, 4), pair)

    def test_signcheck_refuses_where_the_closed_form_overflowed_to_zero(self):
        # dp f^3 overflowed, 2 / inf made the closed-form S' 0 at every point, and the report read
        # ok=False with max_abs_err 8.2e65 for a valid pair
        pair = EllipsoidPair.normalized(Ellipsoid(F(4, 7), F(3, 7)), Ellipsoid(F(9, 8), F(3, 7) * 2**248))
        with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond float range$"):
            s_derivative_signcheck(IndexVector(3, 4), pair)

    # a^2 - b^2 was inf - inf in Python floats (mean and stderr NaN, no warning), the squared
    # deviations overflowed (stderr NaN), and float(10^400) raised OverflowError
    @pytest.mark.parametrize("domain", [Ellipsoid(10**160, 10**160), Polydisk(10**200, 1), Ellipsoid(10**400, 1)])
    def test_mean_width_estimate_refuses(self, domain):
        with pytest.raises(ValueError, match="^mean_width_estimate of these radii lies beyond float range$"):
            mean_width_estimate(domain, 200, 0)

    def test_mean_width_estimate_of_a_large_ball(self):
        assert mean_width_estimate(Ellipsoid(10**150, 10**150), 200, 0) == MeanWidthEstimate(1e150, 0.0, 200, 0)
