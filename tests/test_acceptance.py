"""Acceptance gate: one test per headline criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Every expected value is either recomputed here by an
independent oracle (direct scans, double loops, explicit matrix products)
or frozen after such a computation; no tolerance is looser than exact
equality unless the criterion itself states a bracket.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from delone import choquet as C
from delone import hierarchy as H
from delone import maps, nonrect, rectlab as R, ue
from delone.hierarchy import BLOCK_ALIGNED, SLIDING
from delone.patch import Patch, corner_density
from delone.sampling import random_bilip_map, random_closed_polyline


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS  {msg}")


# ----------------------------------------------------------------------

def test_criterion_01_corner_densities():
    sparse, dense = nonrect.starting_patches()
    t0 = time.perf_counter()
    d_dense = corner_density(dense, 4)
    d_sparse = corner_density(sparse, 4)
    elapsed = time.perf_counter() - t0
    assert d_dense == F(16, 16)
    assert d_sparse == F(10, 16)
    assert elapsed < 1e-3
    _ok(1, f"corner densities 16/16 and 10/16 in {elapsed * 1e6:.0f} us")


def test_criterion_02_limit_density_and_bracket():
    t0 = time.perf_counter()
    build = ue.build_ue_spec(None, 3, mode="toy")
    spec = build.spec
    assert build.limit_density() == F(13, 16)
    # telescoped exact densities approach 13/16 from both sides
    gap = spec.density(1, 2) - spec.density(1, 1)
    top = spec.num_levels
    for t in range(2, top + 1):
        off = build.offset_between(1, t)
        assert spec.density(t, 1) == F(13, 16) - off * gap
        assert spec.density(t, 2) == F(13, 16) + off * gap
    mat = H.materialize(spec, top, 1)
    dens = F(mat.popcount(), mat.width * mat.height)
    lo, hi = build.density_bracket(top)
    assert lo <= dens <= hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _ok(2, f"limit 13/16; depth-3 window density {dens} inside bracket in {elapsed:.2f} s")


def test_criterion_03_ninefold_contraction_to_depth_six():
    build = ue.build_ue_spec(None, 6, mode="toy")
    spec = build.spec
    mixes = 0
    for t in range(3, spec.num_levels + 1):
        if spec.levels[t - 2].meta.get("kind") == "mix":
            before = build.offset_between(1, t - 1)
            after = build.offset_between(1, t)
            assert after <= before / 9
            mixes += 1
    assert mixes == 6
    _ok(3, f"offset shrinks by >= 9x at each of {mixes} mixing steps, exactly")


def test_criterion_04_offset_product_identity():
    rng = random.Random(123)
    half = F(1, 2)
    for _ in range(10**4):
        a = F(rng.randint(0, 64), 128)
        b = F(rng.randint(0, 997), 1994)
        ma, mb = ue.MixMatrix(a).entries(), ue.MixMatrix(b).entries()
        prod00 = ma[0][0] * mb[0][0] + ma[0][1] * mb[1][0]
        assert prod00 - half == ue.delta_product(a, b)
    _ok(4, "offset composition equals the 2x2 product offset on 10^4 random pairs")


def test_criterion_05_constant_calculators():
    from delone import suites

    rows = suites.run_suite("constants")
    assert len(rows) == 5 and all(row.ok for _, row in rows), rows
    n = sum(len(table) for _, table, _ in suites.CONSTANT_CHECKS)
    assert n >= 10
    _ok(5, f"{n} fixture parameter sets reproduced exactly")


def test_criterion_06_extension_is_six_l():
    rng = random.Random(2024)
    violations = 0
    for i in range(200):
        if i < 170:
            w, h = rng.randint(3, 10), rng.randint(3, 10)
        else:
            w, h = rng.randint(11, 20), rng.randint(11, 20)
        f = random_bilip_map(rng, w, h)
        lsq, hsq, ok = maps.extension_certificate(f)
        if not ok:
            violations += 1
    assert violations == 0
    _ok(6, "200 random maps: extension distortion <= 6L over all window pairs")


def test_criterion_07_lattice_counting_bound():
    rng = random.Random(7)
    t0 = time.perf_counter()
    tested = 0
    while tested < 1000:
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
        assert R.count_lattice_near_curve(curve, t_val) <= 25 * t_val * curve.length
        tested += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _ok(7, f"1000 admissible curves inside the 25*T*length bound in {elapsed:.2f} s")


# ----------------------------------------------------------------------

def _check_counts_against_scans(spec, levels, needles, cap=2**24):
    checked = 0
    for level in levels:
        if spec.cell_count(level) > cap:
            continue
        for pid in range(1, spec.k(level) + 1):
            grid = H.materialize(spec, level, pid, cap=cap).cells
            for needle in needles:
                if needle.width > grid.shape[1] or needle.height > grid.shape[0]:
                    continue
                want = H.scan_count(grid, needle)
                got = H.count_occurrences(spec, needle, level, pid, SLIDING, cap=cap)
                assert got == want, (level, pid, needle.cells.shape, got, want)
                checked += 1
            for m in range(1, level):
                if spec.side(level) // spec.side(m) > 2048:
                    continue
                want = H.aligned_block_counts(grid, spec, m)
                got = [
                    H.count_occurrences(
                        spec,
                        Patch(H.materialize(spec, m, i, cap=cap).cells),
                        level,
                        pid,
                        BLOCK_ALIGNED,
                    )
                    for i in range(1, spec.k(m) + 1)
                ]
                assert got == want, (level, pid, m)
                checked += 1
    return checked


def test_criterion_08_count_oracle_equivalence(nonrect3, ue3, choq_big):
    checked = 0
    spec = nonrect3.spec
    needles = [spec.base[0], spec.base[1], Patch(spec.base[0].cells[:3, :3])]
    checked += _check_counts_against_scans(spec, range(1, spec.num_levels + 1), needles)
    spec = ue3.spec
    needles = [spec.base[0], spec.base[1]]
    checked += _check_counts_against_scans(spec, range(1, spec.num_levels + 1), needles)
    spec = choq_big.spec
    needles = [spec.base[0]]
    checked += _check_counts_against_scans(spec, range(1, spec.num_levels + 1), needles)
    _ok(8, f"recursive counts equal materialized scans in {checked} cases (levels <= 2^24 cells)")


def test_criterion_09_probe_predicates():
    grid = R.GridSpec(M=4, N=2, P=2)
    ident = R.identity_on(grid)
    assert R.check_no_stretch(ident, grid, F(1, 10)) == []
    res = R.find_regular_square(ident, grid, F(1, 3))
    assert res.k_star == 1 and all(v >= res.threshold for v in res.minima.values())
    assert R.coarse_derivative_deviation(ident, grid, 1).max_sq == 0

    # constructed single stretch: exact expected witness
    imgs = {(x, y): (x if x <= 6 else x + 2, y) for x in range(17) for y in range(5)}
    f = maps.CandidateMap(grid.window, imgs)
    viol = R.check_no_stretch(f, grid, F(1, 2))
    assert [(v.k, v.i, v.j) for v in viol] == [(2, 1, 0), (2, 1, 1), (2, 1, 2)]
    exp = R.expanding_pair_search(f, grid, F(1, 2), F(7, 8), F(3, 4),
                                  k=1, verify_densities=False)
    assert exp.witness == (6, 0)

    # random maps against independent per-point oracles
    from tests_oracles import deviation_oracle, regular_oracle, stretch_oracle

    rng = random.Random(99)
    for i in range(100):
        fmap = _random_window_map(rng, grid)
        lam = F(rng.randint(1, 9), 9)
        got = [(v.k, v.i, v.j) for v in R.check_no_stretch(fmap, grid, lam)]
        assert got == stretch_oracle(fmap, grid, lam)
        if i % 5 == 0:
            tau = F(rng.randint(1, 8), 9)
            rs = R.find_regular_square(fmap, grid, tau)
            want_kstar, want_minima = regular_oracle(fmap, grid, tau)
            assert rs.k_star == want_kstar and rs.minima == want_minima
            kk = rng.randint(1, 2 * grid.N - 1)
            assert R.coarse_derivative_deviation(fmap, grid, kk).max_sq == deviation_oracle(fmap, grid, kk)
    _ok(9, "identity/constructed witnesses exact; 100 random maps match the oracles")


def _random_window_map(rng, grid):
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
    return maps.CandidateMap(grid.window, imgs)


def test_criterion_10_simplex_structure(choq_small):
    spec, seq, witness = choq_small.spec, choq_small.seq, choq_small.witness
    # block counts equal the matrices exactly, and patch 1 anchors each corner
    for n in range(2, spec.num_levels + 1):
        assert spec.step_count_matrix(n) == seq.A[n - 2]
        lv = spec.levels[n - 2]
        for arr in lv.arrangements:
            assert arr.id_at(lv.branching - 1, lv.branching - 1) == 1
    # rigorous constructor output passes all sequence checks
    rig = C.make_choquet_seq(2, 3, mode="rigorous")
    rep = C.validate_choquet_seq(rig)
    assert rep.ok, rep.failed()
    # cardinality formula against materialized counts at depth 2 (and 3)
    for n in (2, 3):
        for k in range(1, seq.k[n - 1] + 1):
            assert C.patch_cardinality(seq, witness.i0, n, k) == H.materialize(spec, n, k).popcount()
    # measure recursion residual exactly zero
    for terminal in (1, 2, 3, "barycenter"):
        vecs = C.measure_vectors(seq, 3, terminal)
        assert C.measure_residual(seq, vecs) == 0
    # density separation holds as exact rationals
    d, dp = C.density_bounds(seq, witness)
    assert d > dp
    for n, (jd, js) in witness.columns.items():
        qn = seq.q[n - 1]
        assert C.patch_cardinality(seq, witness.i0, n, jd) >= qn * d
        assert C.patch_cardinality(seq, witness.i0, n, js) <= qn * dp
    _ok(10, "level counts == matrices, sequence checks pass, cardinalities exact, residual 0")


def test_criterion_11_repetitivity_windows(nonrect3, ue3, choq_small):
    from tests_oracles import repetitivity_oracle

    cases = []
    win_nr = H.materialize(nonrect3.spec, 3, 1)  # 36 x 36
    cases.append(("nonrect", win_nr, (1, 2)))
    win_ue = Patch(H.materialize(ue3.spec, 5, 1).cells[:96, :96])
    cases.append(("ue", win_ue, (1, 2, 4)))
    win_ch = Patch(H.materialize(choq_small.spec, 3, 1).cells[:96, :96])
    cases.append(("choquet", win_ch, (1, 2, 4)))
    msgs = []
    for name, window, rs in cases:
        for r in rs:
            got = H.estimate_repetitivity(window, r)
            assert got is not None, (name, r)
            want = repetitivity_oracle(window.cells, r)
            assert got == want, (name, r, got, want)
            msgs.append(f"{name} r={r}: R={got}")
    # the bigger radius set on the real windows stays finite as well
    assert H.estimate_repetitivity(H.materialize(ue3.spec, 5, 1), 4) is not None
    _ok(11, "; ".join(msgs))


def test_criterion_12_expansion_flags_and_oracle_fixtures(nonrect3):
    side = nonrect3.spec.side(4)

    def g(x):
        return 8 * x if x <= 4 else 32 + (x - 4)

    stretched = maps.CandidateMap(
        (0, 0, side - 1, side - 1),
        {(x, y): (g(x), y) for x in range(side) for y in range(side)},
    )
    rep = nonrect.expansion_chain_report(nonrect3.spec, stretched, F(1, 2), 1)
    assert rep.contradiction

    ident = maps.CandidateMap(
        (0, 0, side - 1, side - 1),
        {(x, y): (x, y) for x in range(side) for y in range(side)},
    )
    assert not nonrect.expansion_chain_report(nonrect3.spec, ident, F(1, 2), 1).contradiction

    base = [Patch(np.array([[1, 1], [1, 0]], dtype=np.uint8))]
    lv = H.Level([H.Arrangement.dense(np.ones((3, 3), dtype=np.int64))])
    periodic = H.HierarchySpec(base, [lv, lv], kind="custom", anchored=True)
    pside = periodic.side(3)
    pid = maps.CandidateMap(
        (0, 0, pside - 1, pside - 1),
        {(x, y): (x, y) for x in range(pside) for y in range(pside)},
    )
    assert not nonrect.expansion_chain_report(periodic, pid, None, 2).contradiction

    res = R.brute_force_min_bilip([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)], (0, 0, 4, 2))
    assert res.bilip_sq == 1 and res.images == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    res = R.brute_force_min_bilip([(0, 0), (2, 0), (4, 0), (0, 2), (2, 2)], (0, 0, 2, 2))
    assert res.bilip_sq == 4 and res.images == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    _ok(12, "synthetic stretches flagged, controls clean, oracle fixtures exact")
