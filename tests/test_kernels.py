import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import capacity_lab
from capacity_lab import (
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    _kernels,
    even_family,
    odd_family,
    s_derivative_signcheck,
    support_norm,
    support_norm_numeric,
)
from conftest import golden_max_all_steps, random_nonprop_pair

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
    def test_grid_4096_and_80_golden_steps(self, rng, monkeypatch):
        # 60 golden-section steps give the same floats as 80 here, so the call itself is checked too
        calls, support_max = [], _kernels.support_max
        monkeypatch.setattr(_kernels, "support_max", lambda *args: calls.append(args[-2:]) or support_max(*args))
        support_norm_numeric(IndexVector(1, 1), EVEN2)
        assert calls == [(4096, 80)]
        monkeypatch.undo()
        for _ in range(50):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            floats = [float(x) for x in pair.radii]
            assert support_norm_numeric(v, pair) == _kernels.support_max(v1, k - v1, *floats, 4096, 80)
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
