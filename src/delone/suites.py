"""Named self-verification suites, runnable from the command line.

Each suite returns rows (suite, check, ok, detail); every pass/fail
decision inside is exact.  The frozen expected values below were computed
independently from the displayed formulas before the calculators were
written, and pin them with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

from . import choquet, hierarchy, maps, nonrect, patch, rectlab, sampling, ue
from .hierarchy import BLOCK_ALIGNED, SLIDING


@dataclass(frozen=True)
class SuiteRow:
    suite: str
    check: str
    ok: bool
    detail: str = ""


def _row(suite, check, ok, detail=""):
    return SuiteRow(suite, check, bool(ok), detail)


def _report_row(suite, check, rep):
    """A validator report as one row: its failed checks' witnesses, joined."""
    return _row(suite, check, rep.ok, "; ".join(r.witness for r in rep.failed()))


# frozen fixture table: (L, eps, P) -> (lam, M0, N0)
REGULARITY_FIXTURES = {
    (F(1), F(1), 1): (F(1, 108), 540, 1082),
    (F(1), F(1, 2), 1): (F(1, 432), 2160, 4322),
    (F(2), F(1, 2), 2): (F(1, 3456), 41472, 103682),
    (F(3), F(1, 4), 3): (F(1, 46656), 979776, 2892674),
    (F(3, 2), F(1, 3), 1): (F(1, 2187), 12029, 38275),
}

# (L, gap) -> (lam, M*, N*); evaluated at d - d' = gap
DENSITY_GAP_FIXTURES = {
    (F(1), F(1)): (F(1, 10**10), 10**15, 10**10),
    (F(2), F(1, 2)): (F(1, 10240000000000), 32768000000000000000, 163840000000000),
    (F(1), F(1, 3)): (F(1, 270000000000), 81000000000000000, 810000000000),
    (F(3), F(1, 4)): (F(1, 1399680000000000), 45349632000000000000000, 151165440000000000),
    (F(5, 2), F(2, 5)): (F(1, 95367431640625), 931322574615478515625, 3725290298461915),
}

# (L, eps) -> P0
CONTAINMENT_FIXTURES = {
    (F(1), F(1)): 5184,
    (F(1), F(1, 100)): 10800,
    (F(1), F(1, 10000)): 1080000,
    (F(2), F(1, 2)): 82944,
    (F(3, 2), F(1, 5)): 26244,
}

# (L, lam) -> ell
ITERATION_FIXTURES = {
    (F(2), F(1, 10)): 40,
    (F(1), F(1)): 1,
    (F(3), F(1, 7)): 63,
    (F(5, 2), F(3, 100)): 209,
}

# (N*, d1, d2, d1', d2') -> N
BLOCK_COUNT_FIXTURES = {
    (4, F(0), F(1), F(1, 3), F(2, 3)): 6,
    (10, F(0), F(4), F(1), F(3)): 10,
    (2, F(0), F(1), F(1, 100), F(99, 100)): 200,
    (1, F(10, 16), F(1), F(3, 4), F(7, 8)): 16,
}


def suite_constants() -> list[SuiteRow]:
    rows = []
    ok = True
    for (L, eps, P), want in REGULARITY_FIXTURES.items():
        got = nonrect.regularity_constants(L, eps, P)
        if tuple(got) != want:
            ok = False
            rows.append(_row("constants", "regularity", False, f"{(L, eps, P)} -> {got}, want {want}"))
    rows.append(_row("constants", "regularity", ok, f"{len(REGULARITY_FIXTURES)} fixtures"))
    ok = True
    for (L, gap), want in DENSITY_GAP_FIXTURES.items():
        got = tuple(nonrect.density_gap_formulas(L, gap))
        if got != want:
            ok = False
            rows.append(_row("constants", "density_gap", False, f"{(L, gap)} -> {got}, want {want}"))
    rows.append(_row("constants", "density_gap", ok, f"{len(DENSITY_GAP_FIXTURES)} fixtures"))
    ok = all(
        nonrect.containment_scale(L, eps) == want
        for (L, eps), want in CONTAINMENT_FIXTURES.items()
    )
    rows.append(_row("constants", "containment_scale", ok, f"{len(CONTAINMENT_FIXTURES)} fixtures"))
    ok = True
    for (L, lam), want in ITERATION_FIXTURES.items():
        got = nonrect.ell_min(L, lam)
        if got != want or not (1 + lam) ** min(got, 4096) > L * L:
            ok = False
    rows.append(_row("constants", "iteration_floor", ok, f"{len(ITERATION_FIXTURES)} fixtures"))
    ok = all(
        nonrect.n_min(ns, d1, d2, d1p, d2p) == want
        for (ns, d1, d2, d1p, d2p), want in BLOCK_COUNT_FIXTURES.items()
    )
    rows.append(_row("constants", "block_count_floor", ok, f"{len(BLOCK_COUNT_FIXTURES)} fixtures"))
    return rows


def suite_core(trials: int = 40, seed: int = 0) -> list[SuiteRow]:
    rows = []
    rng = random.Random(seed)
    q1, q2 = nonrect.starting_patches()
    rows.append(
        _row("core", "corner_densities",
             patch.corner_density(q2, 4) == F(16, 16) and patch.corner_density(q1, 4) == F(10, 16))
    )
    bad = 0
    for _ in range(trials):
        f = sampling.random_bilip_map(rng, rng.randint(3, 9), rng.randint(3, 9))
        lsq, hsq, ok = maps.extension_certificate(f)
        if not ok:
            bad += 1
    rows.append(_row("core", "extension_six_l", bad == 0, f"{trials} random maps"))
    f = sampling.random_bilip_map(rng, 5, 4)
    pts = sorted(f.domain)
    pairs = maps.all_pairs(pts)
    rep = maps.distortion(f, pairs)
    mx, mn = maps.exhaustive_distortion_sq(pts, [(2 * u, 2 * v) for u, v in (f.images[p] for p in pts)])
    rows.append(_row("core", "distortion_oracle", rep.max_expansion_sq == mx and rep.min_expansion_sq == mn))
    g = f.translated((4, -2), (-1, 5))
    rep2 = maps.distortion(g, [((p[0] + 4, p[1] - 2), (q[0] + 4, q[1] - 2)) for p, q in pairs])
    rows.append(_row("core", "translation_invariance",
                     rep2.max_expansion_sq == rep.max_expansion_sq and rep2.min_expansion_sq == rep.min_expansion_sq))
    return rows


def suite_isoper(trials: int = 200, seed: int = 7) -> list[SuiteRow]:
    rng = random.Random(seed)
    tested = 0
    worst = 0.0
    for _ in range(trials):
        pts = sampling.random_closed_polyline(rng, rectilinear=rng.random() < 0.5)
        try:
            curve = rectlab.curve_from_points(pts)
        except ValueError:
            continue
        length = curve.length
        if length < 4:
            continue
        t_val = rng.randint(1, max(1, int(length // 4)))
        if t_val > length / 4:
            continue
        cnt = rectlab.count_lattice_near_curve(curve, t_val)
        tested += 1
        ratio = cnt / (25 * t_val * length)
        worst = max(worst, ratio)
        if cnt > 25 * t_val * length:
            return [_row("isoper", "count_bound", False, f"{cnt} > 25*{t_val}*{length:.3f}")]
    return [_row("isoper", "count_bound", tested > 0, f"{tested} curves, worst ratio {worst:.3f}")]


def suite_ue(depth: int = 3) -> list[SuiteRow]:
    rows = []
    build = ue.build_ue_spec(None, depth, mode="toy")
    rows.append(_row("ue", "limit_density", build.limit_density() == F(13, 16)))
    ok = True
    for t, _off in enumerate(build.level_offsets, start=2):
        if build.spec.levels[t - 2].meta.get("kind") == "mix" and t > 2:
            if not build.offset_between(1, t) <= build.offset_between(1, t - 1) / 9:
                ok = False
    rows.append(_row("ue", "ninefold_contraction", ok, f"depth {depth}"))
    top = min(build.spec.num_levels, 5)
    mat = hierarchy.materialize(build.spec, top, 1)
    dens = F(mat.popcount(), mat.width * mat.height)
    lo, hi = build.density_bracket(top)
    rows.append(_row("ue", "density_bracket", lo <= dens <= hi, f"level {top}: {dens}"))
    rows.append(_row("ue", "exact_density", dens == build.spec.density(top, 1)))
    return rows


def suite_scheme() -> list[SuiteRow]:
    specs = (
        ("nonrect_toy", nonrect.build_delone_spec(nonrect.counting_schedule(3), 3, mode="toy").spec),
        ("ue_toy", ue.build_ue_spec(None, 2, mode="toy").spec),
        ("choquet_toy", choquet.build_choquet_spec(2, 3, mode="toy", ratio_cap=8).spec),
    )
    return [_report_row("scheme", check, hierarchy.validate_scheme(spec)) for check, spec in specs]


def suite_counting() -> list[SuiteRow]:
    rows = []
    nb = nonrect.build_delone_spec(nonrect.counting_schedule(2), 2, mode="toy")
    spec = nb.spec
    needle = spec.base[0]
    ok = True
    for level in range(1, spec.num_levels + 1):
        for pid in range(1, 3):
            grid = hierarchy.materialize(spec, level, pid).cells
            want_slide = hierarchy.scan_count(grid, needle)
            got_slide = hierarchy.count_occurrences(spec, needle, level, pid, SLIDING)
            want_block = hierarchy.aligned_block_counts(grid, spec, 1)[0]
            got_block = hierarchy.count_occurrences(spec, needle, level, pid, BLOCK_ALIGNED)
            if want_slide != got_slide or want_block != got_block:
                ok = False
    rows.append(_row("counting", "recursive_vs_scan", ok))
    fm = hierarchy.block_frequency_matrix(spec, 1, 3)
    fm2 = hierarchy.block_frequency_matrix(spec, 1, 2)
    fm3 = hierarchy.block_frequency_matrix(spec, 2, 3)
    prod = [
        [sum(fm2[i][t] * fm3[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    rows.append(_row("counting", "matrix_composition", fm == prod))
    rows.append(_row("counting", "columns_stochastic", all(sum(fm[i][j] for i in range(2)) == 1 for j in range(2))))
    return rows


def suite_rect() -> list[SuiteRow]:
    rows = []
    grid = rectlab.GridSpec(M=4, N=2, P=2)
    ident = rectlab.identity_on(grid)
    rows.append(_row("rect", "identity_no_stretch", rectlab.check_no_stretch(ident, grid, F(1, 10)) == []))
    res = rectlab.find_regular_square(ident, grid, F(1, 10))
    rows.append(_row("rect", "identity_regular", res.k_star == 1 and all(v >= res.threshold for v in res.minima.values())))
    dev = rectlab.coarse_derivative_deviation(ident, grid, 1)
    rows.append(_row("rect", "identity_zero_deviation", dev.max_sq == 0))
    curve = rectlab.boundary_curve(ident, grid, 1, L=F(1))
    rows.append(_row("rect", "identity_boundary_square", len(curve.deleted_loops) == 0 and abs(curve.length - 16.0) < 1e-9))
    return rows


def suite_choquet(depth: int = 3) -> list[SuiteRow]:
    rows = []
    cb = choquet.build_choquet_spec(2, depth, mode="toy", ratio_cap=8)
    rows.append(_report_row("choquet", "sequence_checks", choquet.validate_choquet_seq(cb.seq)))
    spec = cb.spec
    ok = True
    for n in range(2, spec.num_levels + 1):
        step = spec.step_count_matrix(n)
        mat = cb.seq.A[n - 2]
        if step != mat:
            ok = False
    rows.append(_row("choquet", "exact_counts", ok))
    n = 2
    card_ok = True
    for k in range(1, cb.seq.k[n - 1] + 1):
        want = choquet.patch_cardinality(cb.seq, cb.witness.i0, n, k)
        got = hierarchy.materialize(spec, n, k).popcount()
        if want != got:
            card_ok = False
    rows.append(_row("choquet", "cardinality_formula", card_ok))
    vecs = choquet.measure_vectors(cb.seq, depth, "barycenter")
    rows.append(_row("choquet", "measure_residual", choquet.measure_residual(cb.seq, vecs) == 0))
    return rows


SUITES = {
    "constants": lambda **kw: suite_constants(),
    "core": lambda **kw: suite_core(trials=kw.get("trials", 40), seed=kw.get("seed", 0)),
    "isoper": lambda **kw: suite_isoper(trials=kw.get("trials", 200), seed=kw.get("seed", 7)),
    "ue": lambda **kw: suite_ue(depth=kw.get("depth", 3)),
    "scheme": lambda **kw: suite_scheme(),
    "counting": lambda **kw: suite_counting(),
    "rect": lambda **kw: suite_rect(),
    "choquet": lambda **kw: suite_choquet(depth=kw.get("depth", 3)),
}


def run_suite(name: str, **kw) -> list[SuiteRow]:
    if name == "all":
        out = []
        for nm in SUITES:
            out.extend(SUITES[nm](**kw))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join([*SUITES, 'all'])}")
    return SUITES[name](**kw)
