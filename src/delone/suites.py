"""Named self-verification suites, runnable from the command line.

Each suite returns :class:`~delone.hierarchy.CheckRow` rows (check name,
ok, witness), the row type of the validators and of ``gen``'s ledger; a
check over many cases names its first failing case.  :func:`run_suite`
pairs each row with its suite's name.  Every pass/fail decision inside is
exact.  The frozen expected values below were computed independently from
the displayed formulas before the calculators were written, and pin them
with zero tolerance.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction as F

from . import choquet, hierarchy, maps, nonrect, patch, rectlab, sampling, ue
from .hierarchy import BLOCK_ALIGNED, SLIDING, CheckRow, _check_row


def _row(check, ok, detail=""):
    return CheckRow(check, bool(ok), detail)


def _report_row(check, rep):
    """A validator report as one row: its failed checks' witnesses, joined."""
    return _row(check, rep.ok, "; ".join(r.witness for r in rep.failed()))


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


def _iteration_floor(L, lam):
    """``ell_min``, or None unless (1 + lam)^ell > L^2."""
    ell = nonrect.ell_min(L, lam)
    return ell if (1 + lam) ** min(ell, 4096) > L * L else None


# (check, fixture table, calculator of a table key)
CONSTANT_CHECKS = (
    ("regularity", REGULARITY_FIXTURES, lambda *key: tuple(nonrect.regularity_constants(*key))),
    ("density_gap", DENSITY_GAP_FIXTURES, lambda *key: tuple(nonrect.density_gap_formulas(*key))),
    ("containment_scale", CONTAINMENT_FIXTURES, nonrect.containment_scale),
    ("iteration_floor", ITERATION_FIXTURES, _iteration_floor),
    ("block_count_floor", BLOCK_COUNT_FIXTURES, nonrect.n_min),
)


def suite_constants() -> list[CheckRow]:
    return [
        _check_row(check, (f"{key} -> {got}, want {want}" for key, want in table.items()
                           if (got := calc(*key)) != want), note=f"{len(table)} fixtures")
        for check, table, calc in CONSTANT_CHECKS
    ]


def suite_core(trials: int = 40, seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    q1, q2 = nonrect.starting_patches()
    rows = [_row("corner_densities",
                 patch.corner_density(q2, 4) == F(16, 16) and patch.corner_density(q1, 4) == F(10, 16))]
    fs = [sampling.random_bilip_map(rng, rng.randint(3, 9), rng.randint(3, 9)) for _ in range(trials)]

    def unextended():
        for i, f in enumerate(fs, start=1):
            lsq, hsq, ok = maps.extension_certificate(f)
            if not ok:
                yield f"map {i}: extension distortion^2 {hsq} > 36 * {lsq}"

    rows.append(_check_row("extension_six_l", unextended(), note=f"{trials} random maps"))
    f = sampling.random_bilip_map(rng, 5, 4)
    pts = sorted(f.domain)
    pairs = maps.all_pairs(pts)
    rep = maps.distortion(f, pairs)
    mx, mn = maps.exhaustive_distortion_sq(pts, [(2 * u, 2 * v) for u, v in (f.images[p] for p in pts)])
    rows.append(_row("distortion_oracle", rep.max_expansion_sq == mx and rep.min_expansion_sq == mn))
    g = f.translated((4, -2), (-1, 5))
    rep2 = maps.distortion(g, [((p[0] + 4, p[1] - 2), (q[0] + 4, q[1] - 2)) for p, q in pairs])
    rows.append(_row("translation_invariance",
                     rep2.max_expansion_sq == rep.max_expansion_sq and rep2.min_expansion_sq == rep.min_expansion_sq))
    return rows


def suite_isoper(trials: int = 200, seed: int = 7) -> list[CheckRow]:
    rng = random.Random(seed)
    cases = []  # (count, T, length) of each curve tested
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
        cases.append((rectlab.count_lattice_near_curve(curve, t_val), t_val, length))
    worst = max((cnt / (25 * t * length) for cnt, t, length in cases), default=0.0)
    note = f"{len(cases)} curves, worst ratio {worst:.3f}"
    over = (f"{cnt} > 25*{t}*{length:.3f}" for cnt, t, length in cases if cnt > 25 * t * length)
    return [_check_row("count_bound", over if cases else [note], note=note)]  # no curve tested fails


def suite_ue(depth: int = 3) -> list[CheckRow]:
    build = ue.build_ue_spec(None, depth, mode="toy")
    rows = [_row("limit_density", build.limit_density() == F(13, 16))]
    rows.append(_check_row("ninefold_contraction", (
        f"level {t} offset is not a ninth of level {t - 1}'s"
        for t in range(3, len(build.level_offsets) + 2)
        if build.spec.levels[t - 2].meta.get("kind") == "mix"
        and not build.offset_between(1, t) <= build.offset_between(1, t - 1) / 9
    ), note=f"depth {depth}"))
    top = min(build.spec.num_levels, 5)
    mat = hierarchy.materialize(build.spec, top, 1)
    dens = F(mat.popcount(), mat.width * mat.height)
    lo, hi = build.density_bracket(top)
    rows.append(_row("density_bracket", lo <= dens <= hi, f"level {top}: {dens}"))
    rows.append(_row("exact_density", dens == build.spec.density(top, 1)))
    return rows


def suite_scheme() -> list[CheckRow]:
    specs = (
        ("nonrect_toy", nonrect.build_delone_spec(nonrect.counting_schedule(3), 3, mode="toy").spec),
        ("ue_toy", ue.build_ue_spec(None, 2, mode="toy").spec),
        ("choquet_toy", choquet.build_choquet_spec(2, 3, mode="toy", ratio_cap=8).spec),
    )
    return [_report_row(check, hierarchy.validate_scheme(spec)) for check, spec in specs]


def suite_counting() -> list[CheckRow]:
    nb = nonrect.build_delone_spec(nonrect.counting_schedule(2), 2, mode="toy")
    spec = nb.spec
    needle = spec.base[0]

    def mismatches():
        for level in range(1, spec.num_levels + 1):
            for pid in range(1, 3):
                grid = hierarchy.materialize(spec, level, pid).cells
                want_slide = hierarchy.scan_count(grid, needle)
                got_slide = hierarchy.count_occurrences(spec, needle, level, pid, SLIDING)
                want_block = hierarchy.aligned_block_counts(grid, spec, 1)[0]
                got_block = hierarchy.count_occurrences(spec, needle, level, pid, BLOCK_ALIGNED)
                if want_slide != got_slide or want_block != got_block:
                    yield (f"level {level} patch {pid}: sliding {got_slide}, scan {want_slide}; "
                           f"block-aligned {got_block}, scan {want_block}")

    rows = [_check_row("recursive_vs_scan", mismatches())]
    fm = hierarchy.block_frequency_matrix(spec, 1, 3)
    fm2 = hierarchy.block_frequency_matrix(spec, 1, 2)
    fm3 = hierarchy.block_frequency_matrix(spec, 2, 3)
    prod = [
        [sum(fm2[i][t] * fm3[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    rows.append(_row("matrix_composition", fm == prod))
    rows.append(_row("columns_stochastic", all(sum(fm[i][j] for i in range(2)) == 1 for j in range(2))))
    return rows


def suite_rect() -> list[CheckRow]:
    rows = []
    grid = rectlab.GridSpec(M=4, N=2, P=2)
    ident = rectlab.identity_on(grid)
    rows.append(_row("identity_no_stretch", rectlab.check_no_stretch(ident, grid, F(1, 10)) == []))
    res = rectlab.find_regular_square(ident, grid, F(1, 10))
    rows.append(_row("identity_regular", res.k_star == 1 and all(v >= res.threshold for v in res.minima.values())))
    dev = rectlab.coarse_derivative_deviation(ident, grid, 1)
    rows.append(_row("identity_zero_deviation", dev.max_sq == 0))
    curve = rectlab.boundary_curve(ident, grid, 1, L=F(1))
    rows.append(_row("identity_boundary_square", len(curve.deleted_loops) == 0 and abs(curve.length - 16.0) < 1e-9))
    return rows


def suite_choquet(depth: int = 3) -> list[CheckRow]:
    rows = []
    cb = choquet.build_choquet_spec(2, depth, mode="toy", ratio_cap=8)
    rows.append(_report_row("sequence_checks", choquet.validate_choquet_seq(cb.seq)))
    spec = cb.spec
    rows.append(_check_row("exact_counts", (
        f"level {n} step counts differ from A_{n - 1}"
        for n in range(2, spec.num_levels + 1)
        if spec.step_count_matrix(n) != cb.seq.A[n - 2]
    )))
    n = 2

    def miscounted():
        for k in range(1, cb.seq.k[n - 1] + 1):
            want = choquet.patch_cardinality(cb.seq, cb.witness.i0, n, k)
            got = hierarchy.materialize(spec, n, k).popcount()
            if want != got:
                yield f"level {n} patch {k}: {got} points, formula {want}"

    rows.append(_check_row("cardinality_formula", miscounted()))
    vecs = choquet.measure_vectors(cb.seq, depth, "barycenter")
    rows.append(_row("measure_residual", choquet.measure_residual(cb.seq, vecs) == 0))
    return rows


SUITES = {
    "constants": suite_constants,
    "core": suite_core,
    "isoper": suite_isoper,
    "ue": suite_ue,
    "scheme": suite_scheme,
    "counting": suite_counting,
    "rect": suite_rect,
    "choquet": suite_choquet,
}


def run_suite(name: str, **kw) -> list[tuple[str, CheckRow]]:
    """The (suite name, row) pairs of suite ``name``, or of every suite for
    "all"; each suite gets the keywords among ``kw`` that it declares."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join([*SUITES, 'all'])}")
    out = []
    for nm in SUITES if name == "all" else [name]:
        fn = SUITES[nm]
        params = inspect.signature(fn).parameters
        out += [(nm, row) for row in fn(**{k: v for k, v in kw.items() if k in params})]
    return out
