from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delone import hierarchy as H
from delone import ue
from delone.nonrect import BuildParams
from delone.patch import Patch
from delone.ue import MixMatrix, build_ue_spec, delta_product, mix_level, step_offset

rationals_half = st.fractions(min_value=0, max_value=F(1, 2))


def test_delta_product_examples():
    assert delta_product(F(1, 2), F(1, 2)) == F(1, 2)
    assert delta_product(0, F(1, 3)) == 0
    assert delta_product(F(1, 18), F(1, 18)) == F(1, 162)


def test_delta_product_range_check():
    with pytest.raises(ValueError):
        delta_product(F(2, 3), F(1, 4))


@given(rationals_half, rationals_half)
def test_delta_product_matches_matrix_multiplication(a, b):
    ma, mb = MixMatrix(a).entries(), MixMatrix(b).entries()
    prod = [
        [sum(ma[i][t] * mb[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod[0][0] - F(1, 2) == delta_product(a, b)


@given(rationals_half, rationals_half)
def test_delta_product_commutative_and_contractive(a, b):
    assert delta_product(a, b) == delta_product(b, a)
    assert delta_product(a, b) <= min(a, b)


@given(rationals_half, rationals_half, rationals_half)
def test_delta_product_associative(a, b, c):
    assert delta_product(delta_product(a, b), c) == delta_product(a, delta_product(b, c))


def test_mix_level_counts():
    lv = mix_level()
    assert lv.arrangements[0].counts(2) == [5, 4]
    assert lv.arrangements[1].counts(2) == [4, 5]
    # four corners hold the other patch
    a = lv.arrangements[0]
    assert {a.id_at(c, r) for c in (0, 2) for r in (0, 2)} == {2}
    assert a.id_at(1, 1) == 1


def test_mix_offset_is_one_eighteenth():
    lv = mix_level()
    cols = [arr.counts(2) for arr in lv.arrangements]
    mat = [[cols[j][i] for j in range(2)] for i in range(2)]
    assert step_offset(mat) == F(1, 18)


def test_step_offset_rejects_asymmetric():
    with pytest.raises(ValueError):
        step_offset([[5, 4], [4, 6]])


def test_level_offsets_and_densities(ue3):
    assert ue3.level_offsets[:4] == [F(7, 18), F(1, 18), F(7, 18), F(1, 18)]
    assert ue3.offset_between(1, 3) == F(7, 162)
    spec = ue3.spec
    assert spec.density(2, 1) == F(2, 3)
    assert spec.density(3, 1) == F(43, 54)
    assert ue3.limit_density() == F(13, 16)


def test_exact_density_formula(ue3):
    # density of patch 1 = limit - offset * (d2 - d1), exactly, at every level
    spec = ue3.spec
    gap = spec.density(1, 2) - spec.density(1, 1)
    for t in range(2, spec.num_levels + 1):
        off = ue3.offset_between(1, t)
        assert spec.density(t, 1) == F(13, 16) - off * gap
        assert spec.density(t, 2) == F(13, 16) + off * gap


def test_ninefold_contraction_per_mix(ue3):
    spec = ue3.spec
    for t in range(3, spec.num_levels + 1):
        if spec.levels[t - 2].meta.get("kind") == "mix":
            assert ue3.offset_between(1, t) <= ue3.offset_between(1, t - 1) / 9


def test_transition_matrices_doubly_structured(ue3):
    spec = ue3.spec
    for t in range(2, spec.num_levels + 1):
        mat = H.block_frequency_matrix(spec, 1, t)
        assert sum(mat[i][0] for i in range(2)) == 1
        assert sum(mat[i][1] for i in range(2)) == 1
        assert mat[0][0] == mat[1][1] and mat[0][1] == mat[1][0]


def test_one_full_step_matrix_form(ue3):
    mat = H.block_frequency_matrix(ue3.spec, 1, 3)
    delta = mat[0][0] - F(1, 2)
    assert delta == F(7, 162)
    assert mat == MixMatrix(delta).entries()


def test_materialized_density_inside_bracket(ue3):
    spec = ue3.spec
    top = 5
    m = H.materialize(spec, top, 1)
    dens = F(m.popcount(), m.width * m.height)
    lo, hi = ue3.density_bracket(top)
    assert lo <= dens <= hi
    assert dens == spec.density(top, 1)


def test_rigorous_ue_records_bundle():
    build = build_ue_spec(None, 1, mode="rigorous", max_levels=4)
    rec = build.steps[0]
    assert rec.bundle is not None and rec.truncated_iterations > 0
    # the mixing level still closes the step
    assert build.spec.levels[-1].meta.get("kind") == "mix"
    for off in build.level_offsets:
        assert 0 <= off <= F(1, 2)


def test_level_budget_leaving_only_the_mix_raises():
    # one level left is the mix level alone: the step must fail, as in nonrect
    with pytest.raises(ValueError, match="step 1: level budget exhausted"):
        build_ue_spec(None, 1, mode="rigorous", max_levels=1)
    # toy ell = 2 stores 3 levels a step: 21 steps fill 63 of 64 levels
    with pytest.raises(ValueError, match="step 22: level budget exhausted"):
        build_ue_spec(None, 22, mode="toy", params=BuildParams(ell=2))
    build = build_ue_spec(None, 1, mode="rigorous", max_levels=2)
    rec = build.steps[0]
    assert rec.levels_added == 2 and rec.truncated_iterations == rec.ell - 1
    assert [lv.meta["kind"] for lv in build.spec.levels] == ["alt", "mix"]
    assert rec.bracket_ok is None


# ----------------------------------------------------------------------
# frequency reports
# ----------------------------------------------------------------------

def one_cell_needle():
    return Patch(np.ones((1, 1), dtype=np.uint8))


def test_frequency_report_single_cell(ue3):
    spec = ue3.spec
    rep = ue.frequency_convergence_report(spec, one_cell_needle(), 1, 5)
    for row in rep.rows:
        assert row.density == spec.density(row.level, row.pid)
        assert row.bracket_lo <= row.density <= row.bracket_hi
    spreads = [rep.spread(t) for t in rep.levels()]
    assert all(a > b for a, b in zip(spreads, spreads[1:]))
    assert abs(rep.rows[-1].density - F(13, 16)) <= ue3.offset_between(1, 5)


def test_frequency_report_brackets_for_block_needle(ue3):
    spec = ue3.spec
    needle = spec.base[0]
    rep = ue.frequency_convergence_report(spec, needle, 1, 4)
    for row in rep.rows:
        assert row.bracket_lo <= row.density <= row.bracket_hi
        if row.level > 1:
            assert row.bracket_hi - row.bracket_lo == F(2 * 4, 4)


def test_frequency_report_scan_cross_check(ue3):
    spec = ue3.spec
    needle = spec.base[1]
    rep = ue.frequency_convergence_report(spec, needle, 1, 4)
    for row in rep.rows:
        if row.level <= 3:
            grid = H.materialize(spec, row.level, row.pid).cells
            assert row.count == H.scan_count(grid, needle)


def test_frequency_report_zero_needle(ue3):
    # no 2x2 all-empty block can occur: every second column is fully occupied
    needle = Patch(np.zeros((2, 2), dtype=np.uint8))
    rep = ue.frequency_convergence_report(ue3.spec, needle, 1, 3)
    assert all(row.count == 0 and row.density == 0 for row in rep.rows)


def test_frequency_needle_identification(ue3):
    rep = ue.frequency_convergence_report(ue3.spec, ue3.spec.base[1], 1, 2)
    assert rep.needle_id == 2
