from fractions import Fraction as F

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delone import hierarchy as H
from delone import maps, nonrect
from delone.nonrect import (
    BuildParams,
    ConstantBundle,
    LSchedule,
    build_delone_spec,
    build_new_patches,
    containment_scale,
    counting_schedule,
    density_gap_constants,
    density_gap_formulas,
    ell_min,
    expansion_chain_report,
    gap_targets,
    n_min,
    regularity_constants,
    rigorous_bundle,
    starting_patches,
)
from delone.patch import Patch, corner_density, from_rows, has_even_column_property


# ----------------------------------------------------------------------
# constant calculators (frozen values recomputed independently)
# ----------------------------------------------------------------------

def test_regularity_constants_values():
    assert regularity_constants(1, 1, 1) == (F(1, 108), 540, 1082)
    assert regularity_constants(1, F(1, 2), 1) == (F(1, 432), 2160, 4322)


def test_regularity_constants_scaling_in_l():
    lam1 = regularity_constants(1, F(1, 2), 1).lam
    lam2 = regularity_constants(2, F(1, 2), 1).lam
    assert lam2 == lam1 / 4


def test_density_gap_values():
    assert density_gap_formulas(1, 1) == (F(1, 10**10), 10**15, 10**10)
    lam, ms, ns = density_gap_constants(2, 1, F(1, 2))
    assert lam == F(1, 2**10 * 10**10)
    assert (ms, ns) == (32768 * 10**15, 16384 * 10**10)


def test_density_gap_monotonicity():
    base = density_gap_formulas(1, F(1, 3)).lam
    assert density_gap_formulas(2, F(1, 3)).lam < base
    assert density_gap_formulas(1, F(1, 2)).lam > base


def test_containment_scale_values():
    assert containment_scale(1, 1) == 5184
    assert containment_scale(1, F(1, 100)) == 10800
    assert containment_scale(1, F(1, 10000)) == 1080000  # small eps forces 3(6L)^2/eps


def test_ell_min_values_and_growth():
    assert ell_min(2, F(1, 10)) == 40
    assert ell_min(1, 1) == 1
    for L, lam in [(2, F(1, 10)), (1, F(1, 1))]:
        ell = ell_min(L, lam)
        assert (1 + F(lam)) ** ell > F(L) ** 2


def test_n_min_values():
    assert n_min(4, 0, 1, F(1, 3), F(2, 3)) == 6
    assert n_min(10, 0, 4, 1, 3) == 10
    assert n_min(2, 0, 1, F(1, 100), F(99, 100)) == 200
    with pytest.raises(ValueError):
        n_min(4, F(1, 2), 1, F(1, 3), F(2, 3))


def _n_min_by_fractions(n_star, d1, d2, d1p, d2p):
    """The Fraction formula the step rule had."""
    if not (d2 > d2p > d1p > d1):
        raise ValueError("need d2 > d2' > d1' > d1")
    return 2 * math.ceil(max(F(n_star, 2), 1 / (d2 - d2p), 1 / (d1p - d1)))


_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=10**6)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**30), st.integers(0, 10**40), st.integers(0, 10**40),
       st.integers(0, 10**40), st.integers(0, 10**20), _fracs, _fracs, st.booleans())
def test_integer_step_rule_equals_the_fraction_formula(cells, c1, c2, gap, n_star, d1p, d2p, between):
    """On counts over one cell count, and through the Fraction wrapper;
    ``between`` puts the targets strictly inside the densities, so both
    the value and the out-of-order message are reached."""
    d1, d2 = F(c1, cells), F(c2, cells)
    if between:
        c2 = c1 + gap + 3
        d1, d2 = F(c1, cells), F(c2, cells)
        d1p, d2p = d1 + (d2 - d1) * F(1, 3), d2 - (d2 - d1) * F(1, 3)
    try:
        want = _n_min_by_fractions(n_star, d1, d2, d1p, d2p)
    except ValueError as exc:
        for call in (lambda: nonrect._n_min_counts(n_star, c1, c2, cells, d1p, d2p),
                     lambda: n_min(n_star, d1, d2, d1p, d2p)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(exc)
        return
    assert nonrect._n_min_counts(n_star, c1, c2, cells, d1p, d2p) == want
    assert n_min(n_star, d1, d2, d1p, d2p) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_integer_m_rule_equals_the_fraction_formula(num, den):
    n = max(1, math.ceil(F(num, den)))
    assert nonrect._smallest_odd_at_least(num, den) == (n if n % 2 else n + 1)


def test_constant_bundle_invariants():
    b = rigorous_bundle(1, F(7, 8), F(3, 4))
    assert b.tau == b.eps**2 / 9
    assert (1 + b.lam) ** min(b.ell, 1) > 0  # sanity; real check inside
    with pytest.raises(ValueError, match="tau"):
        ConstantBundle(F(1), F(1, 2), F(1, 3), F(1, 10), 1, 1, 1, 100)


# ----------------------------------------------------------------------
# the alternating-block step
# ----------------------------------------------------------------------

def test_output_side_formula():
    q1, q2 = starting_patches()
    for m, p_star, n_blocks, ell in [(1, 1, 1, 1), (1, 1, 2, 1), (3, 1, 1, 1), (1, 2, 1, 2)]:
        spec = build_new_patches(q1, q2, BuildParams(m=m, P_star=p_star, N=n_blocks, ell=ell))
        side = 4
        for _ in range(ell):
            side *= m * p_star * (2 * n_blocks + 1)
        assert spec.side(spec.num_levels) == side


def test_one_step_block_multiset():
    q1, q2 = starting_patches()
    spec = build_new_patches(q1, q2, BuildParams(m=1, P_star=1, N=1, ell=1))
    assert spec.count_matrix(1, 2) == [[8, 1], [1, 8]]
    arr = spec.levels[0].arrangements[0]
    bottom = [arr.id_at(c, 0) for c in range(3)]
    assert bottom == [1, 2, 1]
    arr2 = spec.levels[0].arrangements[1]
    assert [arr2.id_at(c, 0) for c in range(3)] == [2, 1, 2]


def test_outputs_keep_even_columns_and_boundary():
    q1, q2 = starting_patches()
    spec = build_new_patches(q1, q2, BuildParams(m=1, P_star=1, N=2, ell=1))
    for pid in (1, 2):
        out = H.materialize(spec, 2, pid)
        closed = out.closed()
        assert closed.boundary_full()
        half = closed.width // 2
        assert has_even_column_property(Patch(closed.cells, (-half, -half)))


def test_output_corner_ordering():
    q1, q2 = starting_patches()
    for n_blocks in (1, 2, 4):
        spec = build_new_patches(q1, q2, BuildParams(N=n_blocks))
        assert spec.density(2, 2) > spec.density(2, 1)


def test_corner_density_brackets_with_derived_block_count():
    q1, q2 = starting_patches()
    d1, d2 = corner_density(q1, 4), corner_density(q2, 4)
    d1p, d2p = gap_targets(d1, d2)
    n_blocks = n_min(1, d1, d2, d1p, d2p)
    assert n_blocks == 16
    spec = build_new_patches(q1, q2, BuildParams(N=n_blocks))
    assert spec.density(2, 1) < d1p < d2p < spec.density(2, 2)


def test_step_preconditions():
    q1, q2 = starting_patches()
    with pytest.raises(ValueError, match="odd"):
        BuildParams(m=2)
    with pytest.raises(ValueError, match="denser"):
        build_new_patches(q2, q1, BuildParams())
    no_boundary = from_rows(["101", "010", "101"])
    with pytest.raises(ValueError, match="boundary|side"):
        build_new_patches(no_boundary, no_boundary, BuildParams())
    even_side = from_rows(["11", "11"])
    with pytest.raises(ValueError):
        build_new_patches(even_side, even_side, BuildParams())


# ----------------------------------------------------------------------
# the full construction
# ----------------------------------------------------------------------

def test_depth_one_equals_single_step():
    q1, q2 = starting_patches()
    single = build_new_patches(q1, q2, BuildParams())
    built = build_delone_spec(counting_schedule(1), 1, mode="toy").spec
    assert built.count_matrix(1, 2) == single.count_matrix(1, 2)
    assert H.materialize(built, 2, 1) == H.materialize(single, 2, 1)


def test_depth_three_validates(nonrect3):
    rep = H.validate_scheme(nonrect3.spec)
    assert rep.ok, rep.failed()
    assert nonrect3.spec.anchored


def test_schedule_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        LSchedule((F(2), F(1)))
    with pytest.raises(ValueError, match=">= 1"):
        LSchedule((F(1, 2),))


def test_n1_steps_flagged_and_single_level():
    sched = counting_schedule(3, n1_steps=[2])
    build = build_delone_spec(sched, 3, mode="toy", params=BuildParams(N=2, ell=2))
    flags = [lv.n_is_one for lv in build.spec.levels]
    # steps 1 and 3 store two levels each (ell=2), step 2 stores one N=1 level
    assert flags == [False, False, True, False, False]
    assert build.steps[1].N == 1 and build.steps[1].ell == 1


def test_rigorous_depth_one_ledger_without_materialization():
    build = build_delone_spec(counting_schedule(1), 1, mode="rigorous", max_levels=8)
    rec = build.steps[0]
    want = density_gap_constants(1, rec.d2p, rec.d1p)
    assert rec.bundle.lam == want.lam
    assert rec.bundle.M0 == want.M_star and rec.bundle.N0 == want.N_star
    assert rec.bundle.P0 == containment_scale(1, rec.bundle.eps)
    assert rec.truncated_iterations == rec.ell - 8
    assert rec.bracket_ok is True
    assert rec.out_d1 < rec.d1p < rec.d2p < rec.out_d2
    with pytest.raises(H.CapacityError):
        H.materialize(build.spec, 2, 1)


def test_rigorous_minimum_scale_satisfied():
    build = build_delone_spec(counting_schedule(1), 1, mode="rigorous", max_levels=2)
    rec = build.steps[0]
    # 2 m P* M >= M0 at the first iteration (M = 2 for the starting squares)
    assert 2 * rec.m * rec.P_star * 2 >= rec.bundle.M0
    assert rec.m % 2 == 1
    assert rec.N >= rec.bundle.N0


# ----------------------------------------------------------------------
# expansion chains
# ----------------------------------------------------------------------

def _full_window_map(side, g):
    return maps.CandidateMap(
        (0, 0, side - 1, side - 1),
        {(x, y): (g(x), y) for x in range(side) for y in range(side)},
    )


def test_chain_identity_never_flags(nonrect3):
    side = nonrect3.spec.side(4)
    ident = _full_window_map(side, lambda x: x)
    rep = expansion_chain_report(nonrect3.spec, ident, F(1, 2), 1)
    assert rep.chain_product_sq == 1 and not rep.contradiction
    assert all(e.expansion_sq == 1 for e in rep.entries)


def test_chain_periodic_control_never_flags():
    base = [from_rows(["11", "10"])]
    lv = H.Level([H.Arrangement.dense(np.ones((3, 3), dtype=np.int64))])
    spec = H.HierarchySpec(base, [lv, lv], kind="custom", anchored=True)
    side = spec.side(3)
    ident = _full_window_map(side, lambda x: x)
    rep = expansion_chain_report(spec, ident, None, 1)
    assert not rep.contradiction


def test_chain_flags_synthetic_stretch(nonrect3):
    side = nonrect3.spec.side(4)

    def g(x):
        return 8 * x if x <= 4 else 32 + (x - 4)

    f = _full_window_map(side, g)
    rep = expansion_chain_report(nonrect3.spec, f, F(1, 2), 1)
    assert rep.contradiction
    # expansions grow strictly toward the deepest level
    es = [e.expansion_sq for e in rep.entries]
    assert all(a < b for a, b in zip(es, es[1:]))
    assert rep.chain_product_sq > 1


def test_chain_agrees_with_distortion_on_pairs(nonrect3):
    side = nonrect3.spec.side(4)

    def g(x):
        return 8 * x if x <= 4 else 32 + (x - 4)

    f = _full_window_map(side, g)
    rep = expansion_chain_report(nonrect3.spec, f, None, 1)
    for e in rep.entries:
        d = maps.distortion(f, [e.pair])
        assert d.max_expansion_sq == e.expansion_sq


def test_chain_excludes_single_block_levels():
    sched = counting_schedule(2, n1_steps=[2])
    build = build_delone_spec(sched, 2, mode="toy")
    side = build.spec.side(3)

    # stretch only inside the topmost (N=1) level's bottom-left child
    def g(x):
        return 3 * x if x <= 12 else 36 + (x - 12)

    f = _full_window_map(side, g)
    rep = expansion_chain_report(build.spec, f, None, 1)
    top_entry = rep.entries[0]
    assert top_entry.n_is_one
    included = [e.expansion_sq for e in rep.entries if not e.n_is_one]
    assert rep.chain_product_sq == max(included) / min(included)


def test_chain_requires_covering_window(nonrect3):
    small = _full_window_map(12, lambda x: x)
    with pytest.raises(ValueError, match="window too small"):
        expansion_chain_report(nonrect3.spec, small, None, 1)
