import gc
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delone import maps, rectlab as R
from delone.hierarchy import CapacityError
from delone.maps import CandidateMap
from delone.rectlab import GridSpec
from delone.sampling import random_closed_polyline
from tests_oracles import (
    brute_force_oracle,
    corner_count_oracle,
    deviation_oracle,
    pair_ratio_extremes,
    pt_seg_dist_sq_le,
    regular_oracle,
    stretch_oracle,
)


# ----------------------------------------------------------------------
# probe grids
# ----------------------------------------------------------------------

def test_probe_points_unit_pitch():
    grid = GridSpec(M=2, N=1, P=2)
    pts = {grid.probe(1, i, j) for i in range(3) for j in range(3)}
    assert pts == {(x, y) for x in range(3) for y in range(3)}


def test_probe_points_formula():
    grid = GridSpec(M=4, N=2, P=2)
    assert [grid.probe(2, i, 1) for i in range(3)] == [(4, 2), (6, 2), (8, 2)]
    # conventional extra column reaches into the next square
    assert grid.probe(1, 3, 1) == (6, 2)
    pts = R.probe_points(grid, 1)
    assert len(pts) == 4 * 3
    with pytest.raises(ValueError, match="square index"):
        grid.probe(5, 0, 0)


def test_grid_requires_divisor():
    with pytest.raises(ValueError, match="divide"):
        GridSpec(M=4, N=1, P=3)


# ----------------------------------------------------------------------
# no-stretch checks
# ----------------------------------------------------------------------

def test_identity_has_no_stretch_for_every_slack():
    grid = GridSpec(M=4, N=2, P=2)
    ident = R.identity_on(grid)
    for lam in (F(1, 100), F(1, 10), 1):
        assert R.check_no_stretch(ident, grid, lam) == []


def test_single_stretch_is_witnessed():
    grid = GridSpec(M=4, N=2, P=2)
    imgs = {(x, y): (x if x <= 6 else x + 2, y) for x in range(17) for y in range(5)}
    f = CandidateMap(grid.window, imgs)
    viol = R.check_no_stretch(f, grid, F(1, 2))
    assert viol and viol[0].k == 2 and viol[0].point == (6, 0)
    assert all(v.point[0] == 6 for v in viol)


def test_degenerate_baseline_rejected():
    # unreachable through an injective map; the guard still fires on a raw
    # extension whose window end points collapse
    fh = maps.ExtendedMap((0, 0, 2, 0), np.array([[(0, 0), (5, 5), (0, 0)]], dtype=np.int64))
    grid = GridSpec(M=1, N=1, P=1)
    with pytest.raises(ValueError, match="degenerate baseline"):
        R.find_regular_square(fh, grid, F(1, 10))


def _random_grid_map(rng, grid):
    gx = [0]
    for _ in range(2 * grid.M * grid.N):
        gx.append(gx[-1] + rng.randint(1, 2))
    hy = [0]
    for _ in range(grid.M):
        hy.append(hy[-1] + rng.randint(1, 2))
    imgs = {}
    for x in range(2 * grid.M * grid.N + 1):
        for y in range(grid.M + 1):
            if x % 2 == 0 or x == 2 * grid.M * grid.N or rng.random() < 0.6:
                imgs[(x, y)] = (gx[x], hy[y])
    return CandidateMap(grid.window, imgs)


def test_no_stretch_matches_oracle_on_random_maps():
    grid = GridSpec(M=4, N=2, P=2)
    rng = random.Random(2)
    for _ in range(30):
        f = _random_grid_map(rng, grid)
        lam = F(rng.randint(1, 8), 8)
        got = [(v.k, v.i, v.j) for v in R.check_no_stretch(f, grid, lam)]
        assert got == stretch_oracle(f, grid, lam)


# ----------------------------------------------------------------------
# regular squares and deviations
# ----------------------------------------------------------------------

def test_identity_every_square_regular():
    grid = GridSpec(M=4, N=3, P=2)
    ident = R.identity_on(grid)
    for tau in (F(1, 100), F(1, 3), F(9, 10)):
        res = R.find_regular_square(ident, grid, tau)
        assert res.k_star == 1
        assert all(mn >= res.threshold for mn in res.minima.values())


def test_shear_map_regularity_matches_naive():
    grid = GridSpec(M=4, N=2, P=2)
    sh = CandidateMap(
        grid.window, {(x, y): (x, x + y) for x in range(17) for y in range(5)}
    )
    res = R.find_regular_square(sh, grid, F(1, 10))
    fh = maps.hat_extend(sh)
    v = sh.baseline_vector()
    vsq = v[0] ** 2 + v[1] ** 2
    thr = (1 - F(1, 10)) * F(vsq, 2 * grid.M * grid.N)
    for k in (1, 2* grid.N - 1):
        mins = []
        for j in range(grid.P + 1):
            for i in range(grid.P + 1):
                x = grid.probe(k, i, j)
                a = fh((x[0] + grid.M, x[1]))
                b = fh(x)
                mins.append(((a[0] - b[0]) * v[0] + (a[1] - b[1]) * v[1]) / grid.M)
        assert res.minima[k] == min(mins)
        assert (res.minima[k] >= thr) == (res.k_star is not None and k >= res.k_star or res.minima[k] >= thr)


def test_constructed_map_fails_every_square():
    grid = GridSpec(M=4, N=2, P=2)
    pitch = grid.pitch
    imgs = {(x, y): (x, y) for x in range(17) for y in range(5)}
    for k in range(2, 2 * grid.N + 1):
        t = grid.probe(k, 1, 1)
        imgs[t] = (pitch - (k - 1) * grid.M + (k - 1) * grid.M - grid.M, -5 * k)
        imgs[t] = (pitch - grid.M, -5 * k)
    f = CandidateMap(grid.window, imgs)
    res = R.find_regular_square(f, grid, F(1, 10))
    assert res.k_star is None
    assert all(mn < res.threshold for mn in res.minima.values())


def test_identity_zero_deviation():
    grid = GridSpec(M=4, N=2, P=4)
    dev = R.coarse_derivative_deviation(R.identity_on(grid), grid, 1)
    assert dev.max_sq == 0 and dev.max == 0.0


def test_deviation_respects_theory_budget():
    # with tau = eps^2 / (9 L^2) and the hypotheses satisfied, the deviation
    # on a regular square stays within eps (identity: L = 1)
    grid = GridSpec(M=4, N=2, P=2)
    ident = R.identity_on(grid)
    eps = F(3, 10)
    tau = eps**2 / 9
    res = R.find_regular_square(ident, grid, tau)
    dev = R.coarse_derivative_deviation(ident, grid, res.k_star)
    assert dev.max_sq <= eps**2


def test_deviation_matches_naive_on_random_maps():
    grid = GridSpec(M=4, N=2, P=2)
    rng = random.Random(9)
    for _ in range(20):
        f = _random_grid_map(rng, grid)
        fh = maps.hat_extend(f)
        v = f.baseline_vector()
        for k in (1, 2):
            want = F(0)
            for j in range(grid.P + 1):
                for i in range(grid.P + 1):
                    x = grid.probe(k, i, j)
                    a = fh((x[0] + grid.M, x[1]))
                    b = fh(x)
                    dx = (a[0] - b[0]) / grid.M - F(v[0], 2 * grid.M * grid.N)
                    dy = (a[1] - b[1]) / grid.M - F(v[1], 2 * grid.M * grid.N)
                    want = max(want, dx * dx + dy * dy)
            assert R.coarse_derivative_deviation(f, grid, k).max_sq == want


# ----------------------------------------------------------------------
# expanding pairs
# ----------------------------------------------------------------------

def test_expanding_search_identity_flags_inconsistency():
    grid = GridSpec(M=4, N=2, P=2)
    ident = R.identity_on(grid)
    res = R.expanding_pair_search(
        ident, grid, F(1, 10), F(7, 8), F(3, 4), k=1, verify_densities=False
    )
    assert res.witness is None
    assert "inconsistent" in res.note


def test_expanding_search_finds_stretched_step():
    grid = GridSpec(M=4, N=2, P=2)
    imgs = {(x, y): (x if x <= 6 else x + 3, y) for x in range(17) for y in range(5)}
    f = CandidateMap(grid.window, imgs)
    res = R.expanding_pair_search(
        f, grid, F(1, 4), F(7, 8), F(3, 4), k=1, verify_densities=False
    )
    assert res.witness == (6, 0) and res.kind == "direct"


def test_expanding_search_density_precondition():
    grid = GridSpec(M=4, N=2, P=2)
    ident = R.identity_on(grid)
    with pytest.raises(R.SquareDensityError, match="S_1"):
        R.expanding_pair_search(ident, grid, F(1, 10), F(7, 8), F(3, 4))


def test_expanding_search_accepts_true_density_gap():
    grid = GridSpec(M=4, N=2, P=2)
    imgs = {}
    for x in range(17):
        for y in range(5):
            if x % 2 == 0 or not (8 <= x < 12) or y == 0:
                imgs[(x, y)] = (x, y)
    f = CandidateMap(grid.window, imgs)
    counts = [R.corner_count(f, grid, k) for k in (1, 2, 3, 4)]
    assert counts[2] < counts[1]
    res = R.expanding_pair_search(
        f, grid, F(1, 10), F(counts[1], 16), F(counts[2], 16)
    )
    assert res.squares == (2, 3)


@pytest.mark.parametrize("seed", range(4))
def test_corner_counts_in_one_pass_match_each_square_scan(seed):
    """The domain reaches past the 2N squares on every side, so the one-pass
    buckets must drop what lies left, right and above of the corners."""
    grid = GridSpec(M=3, N=2, P=3)
    rng = random.Random(seed)
    window = (-4, -2, 2 * grid.M * grid.N + 5, grid.M + 2)
    keep = {p for p in maps.window_points(window) if p[0] % 2 == 0 or rng.random() < 0.5}
    f = CandidateMap(window, {p: p for p in keep})
    want = {k: corner_count_oracle(f, grid, k) for k in range(1, 2 * grid.N + 1)}
    assert R._corner_counts(f, grid) == want
    assert {k: R.corner_count(f, grid, k) for k in want} == want


@pytest.mark.parametrize("scale", [1, 2**20, 10**23], ids=["int64", "int64-wide", "python-int"])
@pytest.mark.parametrize("grid", [GridSpec(4, 2, 2), GridSpec(3, 2, 3), GridSpec(6, 1, 2)],
                         ids=["pitch2", "pitch1", "pitch3"])
def test_vector_kernels_match_the_oracles(grid, scale):
    """Each probe-grid kernel and the exhaustive distortion pass against a
    per-point re-evaluation, on int64 images, small and near the int64
    guard, and on images past int64 (scaled by 10^23, so every pass runs
    on Python ints)."""
    rng = random.Random(grid.M * 100 + grid.P)
    for _ in range(8):
        f = _random_grid_map(rng, grid)
        f = CandidateMap(grid.window, {p: (u * scale, v * scale) for p, (u, v) in f.images.items()})
        assert (f.image.dtype == object) == (scale > 2**62)
        lam, tau = F(rng.randint(0, 8), 8), F(rng.randint(0, 9), 10)
        assert [(v.k, v.i, v.j) for v in R.check_no_stretch(f, grid, lam)] == stretch_oracle(f, grid, lam)
        res = R.find_regular_square(f, grid, tau)
        assert (res.k_star, res.minima) == regular_oracle(f, grid, tau)
        for k in range(1, 2 * grid.N):
            assert R.coarse_derivative_deviation(f, grid, k).max_sq == deviation_oracle(f, grid, k)
        assert R._corner_counts(f, grid) == {
            k: corner_count_oracle(f, grid, k) for k in range(1, 2 * grid.N + 1)
        }
        pts = sorted(f.domain)[:40]
        twice = [(2 * u, 2 * v) for u, v in (f(p) for p in pts)]
        assert maps.exhaustive_distortion_sq(pts, twice) == pair_ratio_extremes(pts, twice)


# ----------------------------------------------------------------------
# boundary curves and lattice counting
# ----------------------------------------------------------------------

def test_identity_boundary_is_the_square():
    grid = GridSpec(M=4, N=2, P=4)
    curve = R.boundary_curve(R.identity_on(grid), grid, 2, L=1)
    assert curve.deleted_loops == ()
    assert curve.length == pytest.approx(16.0)
    assert set(curve.vertices) >= {(4, 0), (8, 0), (8, 4), (4, 4)}


def test_transposed_pair_creates_one_deleted_loop():
    grid = GridSpec(M=4, N=1, P=4)
    imgs = {(x, y): (x, y) for x in range(9) for y in range(5)}
    imgs[(1, 0)], imgs[(2, 0)] = imgs[(2, 0)], imgs[(1, 0)]
    f = CandidateMap(grid.window, imgs)
    curve = R.boundary_curve(f, grid, 1)
    assert len(curve.deleted_loops) >= 1
    assert R._first_self_intersection(list(curve.vertices)) is None


def test_loop_bound_on_sampled_maps():
    grid = GridSpec(M=4, N=1, P=4)
    rng = random.Random(3)
    for _ in range(20):
        f = _random_grid_map(rng, GridSpec(M=4, N=1, P=4))
        lsq, _, _ = maps.extension_certificate(f)
        lf = F(math.isqrt(math.ceil(lsq * 1)))
        l_upper = F(math.ceil(math.sqrt(float(lsq)) + 1))
        R.boundary_curve(f, grid, 1, L=l_upper)  # must not raise the loop cap


def test_curve_simplicity_asserted_by_pair_sweep():
    grid = GridSpec(M=4, N=1, P=2)
    rng = random.Random(5)
    for _ in range(20):
        f = _random_grid_map(rng, grid)
        curve = R.boundary_curve(f, grid, 1)
        assert R._first_self_intersection(list(curve.vertices)) is None


def test_lattice_count_unit_square():
    sq = R.curve_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert R.count_lattice_near_curve(sq, 1) == 12
    assert 12 <= 25 * 1 * 4


def test_lattice_count_out_and_back_segment():
    seg = R.curve_from_points([(0, 0), (8, 0)])
    assert seg.length == pytest.approx(16.0)
    cnt = R.count_lattice_near_curve(seg, 1)
    assert cnt == 29
    assert cnt <= 400


def test_near_segment_mask_exact_across_the_guarded_box():
    """A diagonal of the full |coord| <= 20000 box, where ww * dd alone would
    pass 2^63, against Python ints; the cross product squared stays below."""
    a, b, tsq = (-20000, -20000), (20000, 20000), 200 * 200
    rng = np.random.default_rng(3)
    t = rng.integers(-20000, 20001, 3000)
    k = rng.integers(-300, 301, 3000)  # points near the diagonal, both sides of T
    xs = np.concatenate([rng.integers(-20000, 20001, 3000), np.clip(t + k, -20000, 20000),
                         [-20000, -20000, 20000, 20000, -19900, 19950]])
    ys = np.concatenate([rng.integers(-20000, 20001, 3000), np.clip(t - k, -20000, 20000),
                         [-20000, 20000, -20000, 20000, -20000, 20000]])
    got = R._near_segment_mask(xs, ys, *a, *b, tsq)
    pts = list(zip(xs.tolist(), ys.tolist()))
    want = [pt_seg_dist_sq_le(p, a, b, tsq) for p in pts]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    dx, dy = b[0] - a[0], b[1] - a[1]
    assert max(((x - a[0]) * dy - (y - a[1]) * dx) ** 2 for x, y in pts) < 2**63
    assert tsq * (dx * dx + dy * dy) < 2**63


def test_lattice_count_is_translation_invariant_past_the_int64_guard():
    """Translated by (10^6, 10^6), the scaled coordinates pass the 20000
    guard of the int64 pass, so the count runs on Python ints."""
    pts = [(0, 0), (F(40, 3), 0), (15, 10), (6, F(35, 2)), (-3, 8)]
    near = R.count_lattice_near_curve(R.curve_from_points(pts), 3)
    far = R.curve_from_points([(x + 10**6, y + 10**6) for x, y in pts])
    assert R.count_lattice_near_curve(far, 3) == near == 347


def test_lattice_count_range_errors():
    sq = R.curve_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError, match="length/4"):
        R.count_lattice_near_curve(sq, 2)
    tiny = R.curve_from_points([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
    with pytest.raises(ValueError, match="length >= 4"):
        R.count_lattice_near_curve(tiny, 1)


def test_lattice_count_matches_rational_fallback():
    # a third-integer vertex: coordinates are scaled by 3 (in int64, inside
    # the guard) and checked against the rational oracle
    tri = R.curve_from_points([(0, 0), (F(10, 3), 0), (0, 3)])
    fast = R.count_lattice_near_curve(tri, 1)
    brute = 0
    for x in range(-2, 6):
        for y in range(-2, 6):
            p = (F(x), F(y))
            vs = tri.vertices
            if any(
                pt_seg_dist_sq_le(p, vs[t], vs[(t + 1) % 3], F(1))
                for t in range(3)
            ):
                brute += 1
    assert fast == brute


def test_isoper_bound_random_sweep():
    rng = random.Random(12)
    done = 0
    while done < 120:
        pts = random_closed_polyline(rng, rectilinear=rng.random() < 0.5)
        try:
            curve = R.curve_from_points(pts)
        except ValueError:
            continue
        if curve.length < 4:
            continue
        t_val = rng.randint(1, max(1, int(curve.length // 4)))
        if t_val > curve.length / 4:
            continue
        cnt = R.count_lattice_near_curve(curve, t_val)
        assert cnt <= 25 * t_val * curve.length
        done += 1


# ----------------------------------------------------------------------
# brute force oracle and heuristic maps
# ----------------------------------------------------------------------

def test_brute_force_trivial_cases():
    res = R.brute_force_min_bilip([(0, 0), (2, 0)], (0, 0, 2, 0))
    assert res.bilip_sq == 1
    res = R.brute_force_min_bilip([(0, 0), (1, 0), (0, 1), (1, 1)], (0, 0, 1, 1))
    assert res.bilip_sq == 1


def test_brute_force_regression_fixtures():
    res = R.brute_force_min_bilip(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)], (0, 0, 4, 2)
    )
    assert res.bilip_sq == 1
    assert res.images == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    res = R.brute_force_min_bilip(
        [(0, 0), (2, 0), (4, 0), (0, 2), (2, 2)], (0, 0, 2, 2)
    )
    assert res.bilip_sq == 4
    assert res.images == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))


def test_brute_force_symmetry_invariance():
    pts = [(0, 0), (2, 0), (4, 0), (0, 2), (2, 2)]
    base = R.brute_force_min_bilip(pts, (0, 0, 2, 2)).bilip_sq
    rot = [(-y, x) for (x, y) in pts]
    assert R.brute_force_min_bilip(rot, (-2, 0, 0, 2)).bilip_sq == base
    refl = [(-x, y) for (x, y) in pts]
    assert R.brute_force_min_bilip(refl, (-2, 0, 0, 2)).bilip_sq == base


def test_brute_force_box_too_small():
    with pytest.raises(ValueError, match="box too small"):
        R.brute_force_min_bilip([(0, 0), (1, 0), (0, 1)], (0, 0, 1, 0))


# the six pooled benchmark sets (perfbench/pool.json, exact-checks), each in
# the box (0, 0, 3, 3), with the value and witness of plain backtracking
POOLED_BRUTE_FORCE = [
    ([(5, 1), (4, 0), (3, 3), (0, 1), (0, 5), (2, 3), (3, 2), (2, 5)], F(4),
     ((0, 0), (0, 1), (2, 0), (1, 3), (3, 3), (2, 1), (3, 0), (3, 2))),
    ([(3, 5), (3, 2), (0, 1), (1, 5), (4, 2), (2, 2), (5, 0), (0, 2)], F(4),
     ((0, 1), (1, 3), (3, 0), (0, 0), (2, 2), (0, 3), (3, 3), (2, 0))),
    ([(2, 0), (0, 3), (0, 5), (3, 1), (2, 5), (3, 5), (5, 1)], F(4),
     ((0, 0), (0, 2), (0, 3), (1, 0), (1, 3), (2, 2), (3, 0))),
    ([(0, 0), (2, 0), (1, 1), (0, 4), (3, 4), (4, 0), (3, 2)], F(13, 4),
     ((0, 1), (1, 0), (0, 0), (1, 3), (3, 3), (3, 0), (2, 1))),
    ([(3, 4), (3, 1), (4, 2), (3, 3), (3, 0), (4, 4), (1, 5), (4, 1)], F(5, 2),
     ((0, 0), (0, 2), (1, 2), (1, 1), (0, 3), (1, 0), (3, 0), (1, 3))),
    ([(0, 2), (1, 0), (1, 2), (1, 3), (3, 1), (5, 2), (2, 0)], F(5, 2),
     ((0, 0), (0, 2), (1, 0), (2, 0), (1, 3), (3, 3), (0, 3))),
]


@pytest.mark.parametrize("pts, want, images", POOLED_BRUTE_FORCE)
def test_brute_force_pooled_sets_keep_value_and_witness(pts, want, images):
    res = R.brute_force_min_bilip(pts, (0, 0, 3, 3))
    assert (res.bilip_sq, res.images) == (want, images)


def test_brute_force_far_points_and_far_box_stay_exact():
    pts, want, images = POOLED_BRUTE_FORCE[0]
    far = 10**12
    res = R.brute_force_min_bilip([(x + far, y - far) for x, y in pts], (0, 0, 3, 3))
    assert (res.bilip_sq, res.images) == (want, images)
    res = R.brute_force_min_bilip(pts, (far, -far, far + 3, 3 - far))
    assert res.bilip_sq == want
    assert res.images == tuple((u + far, v - far) for u, v in images)


def test_brute_force_box_past_the_cap(monkeypatch):
    # point distances 1 and 2: two rank classes over 32 x 32 target pairs
    pts = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(CapacityError, match="brute-force rank table requires"):
        R.brute_force_min_bilip(pts, (0, 0, 10**9, 10**9))
    monkeypatch.setenv("DELONE_CELL_CAP", str(2 * 32 * 32))
    assert R.brute_force_min_bilip(pts, (0, 0, 3, 7)).bilip_sq == 1
    monkeypatch.setenv("DELONE_CELL_CAP", str(2 * 32 * 32 - 1))
    with pytest.raises(CapacityError, match="brute-force rank table requires 2048 cells"):
        R.brute_force_min_bilip(pts, (0, 0, 3, 7))


def test_brute_force_leaves_no_reference_cycles():
    # tables held in a cycle (say, a self-referencing nested search function)
    # would outlive the call until a full collection
    pts, _, _ = POOLED_BRUTE_FORCE[0]
    gc.collect()
    gc.disable()
    try:
        R.brute_force_min_bilip(pts, (0, 0, 3, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("pts, box, match", [
    ([(0, 0), (1.5, 0)], (0, 0, 2, 2), r"point 1 must be 2 integers, got \(1.5, 0\)"),
    ([(0, 0), (1, 0, 0)], (0, 0, 2, 2), "point 1 must be 2 integers"),
    ([(0, 0), 7], (0, 0, 2, 2), "point 1 must be 2 integers, got 7"),
    ([(0, 0), (1, 0)], (0, 0, 2), r"box \(x0, y0, x1, y1\) must be 4 integers"),
    ([(0, 0), (1, 0)], (0, 0, 2.0, 2), "box .* must be 4 integers"),
    ([(0, 0), (1, 0)], "0 0 2 2", "box .* must be 4 integers"),
    ([(0, 0)] * 9, (0, 0, 2, 2), "oracle capped at 8 points"),
    ([(0, 0), (0, 0)], (0, 0, 2, 2), "points must be distinct"),
])
def test_brute_force_rejects_malformed_input_up_front(pts, box, match):
    with pytest.raises(ValueError, match=match) as err:
        R.brute_force_min_bilip(pts, box)
    assert "\n" not in str(err.value)


def test_brute_force_takes_numpy_ints():
    pts, want, images = POOLED_BRUTE_FORCE[3]
    res = R.brute_force_min_bilip(np.array(pts, dtype=np.int64), tuple(np.array([0, 0, 3, 3], dtype=np.int32)))
    assert (res.bilip_sq, res.images) == (want, images)
    assert all(type(c) is int for p in res.images for c in p)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brute_force_matches_permutation_oracle(data):
    w, h = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, min(4, w * h)))
    coord = st.integers(-6, 6)
    pts = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n, unique=True))
    x0, y0 = data.draw(coord), data.draw(coord)
    box = (x0, y0, x0 + w - 1, y0 + h - 1)
    res = R.brute_force_min_bilip(pts, box)
    assert (res.bilip_sq, res.images) == brute_force_oracle(pts, box)


def test_heuristic_recovers_identity_on_full_grid():
    pts = [(x, y) for x in range(4) for y in range(3)]
    res = R.heuristic_grid_map(pts, 2)
    assert res.radius_sq == 0
    assert all(res.map.images[p] == p for p in pts)
    assert res.report.bilip_sq == 1


def test_heuristic_on_stripes_beats_three():
    pts = [(x, y) for x in (0, 2, 4) for y in range(3)]
    res = R.heuristic_grid_map(pts, 3)
    assert res.report.bilip_sq <= 9


def test_heuristic_consistent_with_oracle_on_subwindow():
    pts = [(x, y) for x in (0, 2, 4) for y in (0, 1)]
    res = R.heuristic_grid_map(pts, 3)
    imgs = [res.map.images[p] for p in pts]
    xs = [u for u, _ in imgs]
    ys = [v for _, v in imgs]
    box = (min(xs), min(ys), max(xs), max(ys))
    best = R.brute_force_min_bilip(pts, box)
    rep = maps.distortion(res.map, maps.all_pairs(pts))
    assert best.bilip_sq <= rep.bilip_sq


def test_heuristic_respects_budget():
    # lattice inputs are always feasible (each point is its own target);
    # the chosen bottleneck radius never exceeds the budget
    pts = [(x, y) for x in (0, 2, 4) for y in (0, 1, 2)]
    res = R.heuristic_grid_map(pts, 2)
    assert res.radius_sq <= 4


def test_predicates_invariant_under_image_translation():
    grid = GridSpec(M=4, N=2, P=2)
    rng = random.Random(31)
    for _ in range(10):
        f = _random_grid_map(rng, grid)
        g = CandidateMap(
            grid.window, {p: (u + 7, v - 3) for p, (u, v) in f.images.items()}
        )
        lam, tau = F(1, 3), F(1, 5)
        va = [(v.k, v.i, v.j) for v in R.check_no_stretch(f, grid, lam)]
        vb = [(v.k, v.i, v.j) for v in R.check_no_stretch(g, grid, lam)]
        assert va == vb
        ra, rb = R.find_regular_square(f, grid, tau), R.find_regular_square(g, grid, tau)
        assert ra.k_star == rb.k_star and ra.minima == rb.minima
        da = R.coarse_derivative_deviation(f, grid, 1).max_sq
        db = R.coarse_derivative_deviation(g, grid, 1).max_sq
        assert da == db


def test_expanding_search_first_witness_matches_naive_scan():
    grid = GridSpec(M=4, N=2, P=2)
    rng = random.Random(77)
    for _ in range(20):
        f = _random_grid_map(rng, grid)
        lam = F(rng.randint(0, 5), 7)
        v = f.baseline_vector()
        vsq = F(v[0] ** 2 + v[1] ** 2)
        bound = (1 + lam) ** 2 * vsq / (2 * grid.M * grid.N) ** 2
        want = None
        for k in range(1, 2 * grid.N + 1):
            for j in range(grid.P + 1):
                for i in range(grid.P + 1):
                    x = grid.probe(k, i, j)
                    if x not in f.images or want is not None:
                        continue
                    t = grid.probe(k, i + 1, j)
                    if not grid.in_window(t):
                        continue
                    if t in f.images:
                        den = grid.pitch
                    elif grid.in_window((t[0] + 1, t[1])) and (t[0] + 1, t[1]) in f.images:
                        t, den = (t[0] + 1, t[1]), 1 + grid.pitch
                    else:
                        continue
                    fu, fv = f.images[x]
                    gu, gv = f.images[t]
                    if F((fu - gu) ** 2 + (fv - gv) ** 2, den**2) >= bound:
                        want = x
        got = R.expanding_pair_search(f, grid, lam, F(7, 8), F(3, 4),
                                      k=1, verify_densities=False)
        assert got.witness == want


def test_heuristic_compression_grows_across_one_level():
    # packing a sparse window into a unit-density box costs more at the next
    # construction scale (empirical at toy scale, frozen values)
    import math

    from delone import hierarchy as H
    from delone import nonrect

    build = nonrect.build_delone_spec(nonrect.counting_schedule(2), 2, mode="toy")
    costs = []
    for level in (1, 2):
        p = H.materialize(build.spec, level, 1)
        pts = list(p.points())
        b = math.isqrt(len(pts) - 1) + 1
        res = R.heuristic_grid_map(pts, p.width + 2, target_box=(0, 0, b - 1, b - 1))
        costs.append(res.report.bilip_sq)
    assert costs == [1, 25]
    assert costs[0] <= costs[1]
