import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import capacity_lab
from capacity_lab import _kernels
from conftest import random_nonprop_pair

SRC = Path(__file__).resolve().parent.parent / "src"


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


def _support_max_grid_reference(v1, v2, a, b, c, d, grid, iters):
    # support_max as it was before the angle table: the grid and its cosines
    # and sines are rebuilt on every call.
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
    return max(float(vals[besti]), _kernels.golden_max(objective, lo, hi, iters))


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

    def test_support_max_equals_the_per_call_grid(self, rng):
        # 64, 512 and 4096 interleaved with two more grids, so that tables are
        # also evicted from the cache and rebuilt between calls
        grids = [64, 4096, 512, 65, 4096, 1000, 64, 512]
        for i, (v1, v2, a, b, c, d) in enumerate(_cases(rng, 120)):
            grid = grids[i % len(grids)]
            got = _kernels.support_max(v1, v2, a, b, c, d, grid, 80)
            assert got == _support_max_grid_reference(v1, v2, a, b, c, d, grid, 80)

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
    def test_cached_arrays_are_read_only(self):
        for grid in (64, 4096):
            cp, sp = _kernels._angle_table(grid)
            assert _kernels._angle_table(grid)[0] is cp
            assert cp.shape == sp.shape == (grid + 1,)
            for arr in (cp, sp):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 2.0
            assert cp[0] == 1.0 and sp[0] == 0.0

    @pytest.mark.parametrize("grid", [512, 1000])
    def test_table_matches_the_angles(self, grid):
        psis = 0.5 * math.pi * np.arange(grid + 1) / grid
        cp, sp = _kernels._angle_table(grid)
        assert np.array_equal(cp, np.cos(psis)) and np.array_equal(sp, np.sin(psis))

    def test_import_builds_no_table(self):
        code = (
            "from capacity_lab import _kernels as k; "
            "print(k._angle_table.cache_info().currsize, k._profile.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert (res.returncode, res.stdout) == (0, "0 0\n"), res.stderr


class TestProfile:
    def test_interleaved_pairs_and_grids(self, rng):
        # the neighbour check's v-1, v, v+1 of one pair, then a second pair,
        # then another grid, then the first pair again: every call misses or
        # hits the one-entry cache and must still equal the per-call grid
        for _ in range(10):
            first, second = ([float(x) for x in random_nonprop_pair(rng).radii] for _ in range(2))
            k = rng.randint(2, 200)
            v1 = rng.randint(1, k - 1)
            calls = [(v1 + dv, k - v1 - dv, *first, 4096) for dv in (-1, 0, 1)]
            calls += [(v1, k - v1, *second, 4096), (v1, k - v1, *second, 512), (v1, k - v1, *first, 4096)]
            for *args, grid in calls:
                assert _kernels.support_max(*args, grid, 80) == _support_max_grid_reference(*args, grid, 80)
        assert _kernels._profile.cache_info().currsize == 1

    def test_cached_profile_is_read_only(self, rng):
        _, _, a, b, c, d = next(_cases(rng, 1))
        g, h = _kernels._profile(a, b, c, d, 512)
        assert _kernels._profile(a, b, c, d, 512)[0] is g
        _, _, _, want_g, want_h = _kernels.gh_profiles(a, b, c, d, 0.5 * math.pi * np.arange(513) / 512)
        assert np.array_equal(g, want_g) and np.array_equal(h, want_h)
        for arr in (g, h):
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
    def test_one_definition_under_two_names(self):
        assert _kernels.golden_max is capacity_lab.golden_max

    def test_interior_peak(self):
        assert _kernels.golden_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 80) == pytest.approx(0.0, abs=1e-15)

    def test_endpoint_peak(self):
        assert _kernels.golden_max(lambda x: x, 0.0, 2.0, 5) == 2.0
