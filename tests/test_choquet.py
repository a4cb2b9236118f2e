import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from delone import choquet as C
from delone import cli
from delone import hierarchy as H
from delone.patch import PatchFormatError, has_even_column_property, loads_patch


# ----------------------------------------------------------------------
# size sequences
# ----------------------------------------------------------------------

def test_canonical_sequence_dim_four():
    s = C.p_sequence(4, 3)
    assert s.p == (4, 32, 4096)
    assert s.r == (1, 2, 6)
    assert s.l == (3, 63)
    assert s.q == (16, 1024, 16777216)


def test_canonical_sequence_infinite_dim():
    assert C.p_sequence(None, 2).p[0] == 4


def test_headroom_recorded_not_enforced():
    s = C.p_sequence(4, 3, k=3)
    # the first canonical step has no headroom for three patches; later ones do
    assert s.headroom_ok == (False, True)


def test_frame_factor_relation():
    s = C.p_sequence(4, 4)
    for i, l in enumerate(s.l):
        assert s.p[i + 1] == 2 * (l + 1) * s.p[i]


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def test_constructor_output_validates_rigorously():
    seq = C.make_choquet_seq(2, 3, mode="rigorous")
    rep = C.validate_choquet_seq(seq)
    assert rep.ok, rep.failed()
    for mat in seq.A:
        assert [row[0] for row in mat] == [row[1] for row in mat]  # first two columns equal


def test_validate_flags_bad_first_row():
    seq = C.make_choquet_seq(2, 2, mode="toy", ratio_cap=8)
    seq.A[0][0][1] = 2
    rep = C.validate_choquet_seq(seq)
    bad = {r.name: r.witness for r in rep.failed()}
    assert "unit_first_row" in bad and "(1,2)" in bad["unit_first_row"]


def test_validate_flags_bad_column_sum():
    seq = C.make_choquet_seq(2, 2, mode="toy", ratio_cap=8)
    seq.A[0][2][0] += 1
    rep = C.validate_choquet_seq(seq)
    assert "column_sums" in {r.name for r in rep.failed()}


def test_constructor_infeasible_sizes_rejected():
    sizes = C.ChoquetSeq(1, (4, 8), (1, 1), (3, 3))
    with pytest.raises(C.SimplexBuildError, match="ratio"):
        C.make_finite_dim_matrices(2, sizes, mode="rigorous")


def test_products_converge_to_distinct_columns():
    seq = C.make_choquet_seq(2, 4, mode="toy", ratio_cap=16)
    spreads = []
    for n in range(1, 4):
        prod = seq.product(n)
        cols = [
            [F(prod[i][j], seq.q[n]) for i in range(seq.k[0])]
            for j in range(seq.k[n])
        ]
        assert cols[0] == cols[1]
        gap = max(abs(cols[1][i] - cols[2][i]) for i in range(seq.k[0]))
        assert gap > 0
        same = max(abs(cols[0][i] - cols[1][i]) for i in range(seq.k[0]))
        spreads.append((same, gap))
    # the two extreme directions stay separated while duplicates coincide
    assert all(s == 0 for s, _ in spreads)
    assert all(g > 0 for _, g in spreads)


def test_product_against_fraction_oracle():
    seq = C.make_choquet_seq(2, 4, mode="toy", ratio_cap=16)
    want = [[F(int(i == j)) for j in range(seq.k[0])] for i in range(seq.k[0])]
    for n in range(len(seq.A) + 1):
        assert seq.product(n) == want
        if n < len(seq.A):
            a = seq.A[n]
            want = [[sum((want[i][t] * a[t][j] for t in range(len(a))), F(0))
                     for j in range(len(a[0]))] for i in range(len(want))]
    with pytest.raises(ValueError, match="no product of 4 matrices"):
        seq.product(len(seq.A) + 1)


@pytest.mark.parametrize("how", ["toy e=2", "toy e=3", "toy e=4", "rigorous e=2", "matrices file"])
def test_count_matrices_are_the_sequence_products(how, tmp_path):
    """The spec's block counts of base patches in level-(n+1) patches are
    A_1 ... A_n, however the sequence was made."""
    if how == "matrices file":
        path = tmp_path / "mats.txt"
        path.write_text("p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n")
        seq = C.read_matrices_file(path)
        cb = C.build_choquet_spec(2, seq.depth, seq=seq)
    else:
        mode, e = how.split(" e=")
        cb = C.build_choquet_spec(int(e), 3, mode=mode)
    spec, seq = cb.spec, cb.seq
    assert spec.num_levels == seq.depth
    for n in range(seq.depth):
        assert spec.count_matrix(1, n + 1) == seq.product(n)


def test_sequence_record_is_frozen_and_derives_from_p():
    seq = C.make_choquet_seq(2, 3, mode="toy", ratio_cap=8)
    q, l = seq.q, seq.l
    for name in ("p", "q", "A"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seq, name, ())
    moved = dataclasses.replace(seq, p=(4, 16, 64))
    assert (moved.q, moved.l) == ((16, 256, 4096), (1, 1))
    assert (seq.q, seq.l) == (q, l) == ((16, 1024, 65536), (3, 3))


# ----------------------------------------------------------------------
# initial patches
# ----------------------------------------------------------------------

def test_initial_patch_cardinalities():
    patches = C.initial_simplex_patches(6, 3, i0=2)
    assert patches[1].popcount() == 36 - 1
    for k in (1, 3):
        assert patches[k - 1].popcount() == 18 + 3 + 1


def test_initial_patch_layout_p6_k3():
    patches = C.initial_simplex_patches(6, 3, i0=1)
    p3 = patches[2]  # even columns + bottom row + marker (1, 3)
    want = np.zeros((6, 6), dtype=np.uint8)
    want[:, 0::2] = 1
    want[0, :] = 1
    want[3, 1] = 1
    assert np.array_equal(p3.cells, want)


def test_initial_patches_distinct_and_even_columns():
    patches = C.initial_simplex_patches(4, 3, i0=2)
    assert len({p.cells.tobytes() for p in patches}) == 3
    for p in patches:
        assert has_even_column_property(p)


def test_initial_patch_markers_fill_odd_columns():
    # p1 = 4 has three marker slots in column 1, then three in column 3
    patches = C.initial_simplex_patches(4, 7, i0=7)
    assert len({p.cells.tobytes() for p in patches}) == 7
    for k, (col, row) in enumerate([(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)], start=1):
        want = np.zeros((4, 4), dtype=np.uint8)
        want[:, 0::2] = 1
        want[0, :] = 1
        want[row, col] = 1
        assert np.array_equal(patches[k - 1].cells, want), k
        assert has_even_column_property(patches[k - 1])


def test_initial_patch_marker_collision():
    # p1 = 4 has six marker slots and p1 = 6 fifteen; patch k takes slot k
    C.initial_simplex_patches(4, 7, i0=7)
    for p1, k1, i0 in [(4, 8, 8), (4, 7, 3), (6, 17, 1)]:
        with pytest.raises(C.SimplexBuildError, match="too large"):
            C.initial_simplex_patches(p1, k1, i0=i0)
    with pytest.raises(ValueError, match="even"):
        C.initial_simplex_patches(5, 3, i0=1)


# ----------------------------------------------------------------------
# level construction
# ----------------------------------------------------------------------

def test_level_corner_anchor_and_counts(choq_small):
    spec, seq = choq_small.spec, choq_small.seq
    for n in range(2, spec.num_levels + 1):
        lv = spec.levels[n - 2]
        side = lv.branching
        for arr in lv.arrangements:
            assert arr.id_at(side - 1, side - 1) == 1
        assert spec.step_count_matrix(n) == seq.A[n - 2]


def test_anchor_block_appears_exactly_once(choq_small):
    # patch 1 fills the top-right cell of every arrangement and nowhere else
    spec, seq = choq_small.spec, choq_small.seq
    for n in range(2, spec.num_levels + 1):
        for j in range(1, seq.k[n - 1] + 1):
            assert spec.step_count_matrix(n)[0][j - 1] == 1


def test_stripe_rules():
    assert C.stripe_choice(0, 4, 32, 1, "literal")
    # ratio p_next/r even makes the literal rule constant over s
    for s in range(-4, 4):
        assert C.stripe_choice(s, 4, 32, 2, "literal")
    # the scaled rule splits signed columns into r runs around zero
    picks = [C.stripe_choice(s, 4, 32, 2, "scaled") for s in range(-4, 4)]
    assert picks == [False] * 4 + [True] * 4


def test_scaled_rule_half_and_half():
    cb = C.build_choquet_spec(2, 3, mode="toy", ratio_cap=8, rule="scaled")
    spec, seq = cb.spec, cb.seq
    n = 3
    lv = spec.levels[n - 2]
    side = lv.branching
    r_n = seq.r[n - 2]
    jd = int(lv.meta["j_dense"])
    js = int(lv.meta["j_sparse"])
    stripe = [lv.arrangements[0].id_at(c, 0) for c in range(side)]
    assert stripe.count(jd) == stripe.count(js) == side // 2
    assert set(stripe) == {jd, js}


def test_stripe_matches_rule_in_built_levels(choq_small):
    spec, seq = choq_small.spec, choq_small.seq
    for n in range(2, spec.num_levels + 1):
        lv = spec.levels[n - 2]
        l_n = seq.l[n - 2]
        r_n = seq.r[n - 2]
        jd, js = int(lv.meta["j_dense"]), int(lv.meta["j_sparse"])
        for arr in lv.arrangements:
            for row in range(r_n):
                for c in range(lv.branching):
                    want = (
                        jd
                        if C.stripe_choice(c - (l_n + 1), seq.p[n - 2], seq.p[n - 1], r_n, "literal")
                        else js
                    )
                    assert arr.id_at(c, row) == want


def test_outputs_pairwise_distinct(choq_small):
    for lv in choq_small.spec.levels:
        blobs = {arr.to_grid().tobytes() for arr in lv.arrangements}
        assert len(blobs) == len(lv.arrangements)


def test_stripe_infeasibility_reported():
    seq = C.make_choquet_seq(2, 2, mode="toy", ratio_cap=8)
    # drain the dense stripe row below its forced usage
    seq.A[0][1] = [1, 1, 1]
    seq.A[0][2] = [61, 61, 61]
    with pytest.raises(C.SimplexBuildError, match="forced blocks"):
        C.build_simplex_level(seq, 1, 2, 3)


def test_spec_validates_and_preserves_even_columns(choq_small):
    rep = H.validate_scheme(choq_small.spec)
    assert rep.ok, rep.failed()
    m2 = H.materialize(choq_small.spec, 2, 1)
    assert has_even_column_property(m2)


# ----------------------------------------------------------------------
# separation, cardinalities, measures
# ----------------------------------------------------------------------

def test_separation_witness(choq_small):
    w = choq_small.witness
    assert w.dbar > w.dbar_prime
    assert w.i0 >= 2
    for t, (jd, js) in w.columns.items():
        assert jd >= 2 and js >= 2 and jd != js


def test_separation_fails_on_singleton():
    sizes = C.toy_p_sequence(1, 3, ratio_cap=8)
    mats = []
    for n in range(2):
        ratio = sizes.q[n + 1] // sizes.q[n]
        fill = (ratio - 1) // 2
        mats.append([[1, 1, 1], [fill, fill, fill], [ratio - 1 - fill] * 3])
    seq = C.ChoquetSeq(1, sizes.p, sizes.r, (3, 3, 3), mats, "toy")
    with pytest.raises(C.SimplexBuildError, match="no separation"):
        C.find_separating_coordinates(seq, 3)


def test_cardinality_formula_base_cases(choq_small):
    seq, w = choq_small.seq, choq_small.witness
    p1 = seq.p[0]
    assert C.patch_cardinality(seq, w.i0, 1, w.i0) == p1 * p1 - 1
    for k in range(1, seq.k[0] + 1):
        if k != w.i0:
            assert C.patch_cardinality(seq, w.i0, 1, k) == p1 * p1 // 2 + p1 // 2 + 1


def test_cardinality_formula_matches_materialized(choq_small):
    spec, seq, w = choq_small.spec, choq_small.seq, choq_small.witness
    for n in (2, 3):
        for k in range(1, seq.k[n - 1] + 1):
            want = C.patch_cardinality(seq, w.i0, n, k)
            assert want == H.materialize(spec, n, k).popcount()


def test_density_bracketing(choq_small):
    seq, w = choq_small.seq, choq_small.witness
    d, dp = C.density_bounds(seq, w)
    assert d > dp
    for n, (jd, js) in w.columns.items():
        pn_sq = seq.q[n - 1]
        assert C.patch_cardinality(seq, w.i0, n, jd) >= pn_sq * d
        assert C.patch_cardinality(seq, w.i0, n, js) <= pn_sq * dp


def test_measure_vectors_uniform_for_flat_matrices():
    # all-ones matrices with ratio k keep the barycenter uniform at every level
    seq = C.ChoquetSeq(None, (2, 4), (1,), (4, 4), [[[1, 1, 1, 1] for _ in range(4)]], "toy")
    vecs = C.measure_vectors(seq, 2, "barycenter")
    assert all(len(set(v.values)) == 1 for v in vecs)
    assert sum(vecs[0].values) == F(1, 4)


def test_measure_recursion_residual_zero(choq_small):
    for terminal in (1, 2, 3, "barycenter"):
        vecs = C.measure_vectors(choq_small.seq, 3, terminal)
        assert C.measure_residual(choq_small.seq, vecs) == 0


def test_measure_vertices_separate(choq_small):
    seq, w = choq_small.seq, choq_small.witness
    jd, js = w.columns[3]
    va = C.measure_vectors(seq, 3, jd)
    vb = C.measure_vectors(seq, 3, js)
    assert va[0].values[w.i0 - 1] - vb[0].values[w.i0 - 1] >= w.dbar - w.dbar_prime


def test_measure_terminal_validation(choq_small):
    with pytest.raises(ValueError, match="outside"):
        C.measure_vectors(choq_small.seq, 3, 7)


def test_rigorous_and_toy_entry_floors():
    rig = C.make_choquet_seq(2, 2, mode="rigorous")
    for n, mat in enumerate(rig.A):
        floor = rig.r[n] * rig.p[n + 1]
        assert min(mat[i][j] for i in (1, 2) for j in range(3)) >= floor
    toy = C.make_choquet_seq(2, 2, mode="toy", ratio_cap=8)
    rep = C.validate_choquet_seq(toy)
    assert rep.ok  # floors reported, not required, in toy mode


def test_matrices_file_round_trip(tmp_path):
    mats = tmp_path / "mats.txt"
    mats.write_text(
        "p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n"
    )
    seq = C.read_matrices_file(mats)
    assert seq.p == (4, 32) and seq.k == (3, 3)
    cb = C.build_choquet_spec(2, 2, mode="toy", seq=seq)
    assert H.validate_scheme(cb.spec).ok
    assert cb.spec.step_count_matrix(2) == seq.A[0]
    spec_file = tmp_path / "simplex.cfg"
    spec_file.write_text("matrices mats.txt\n")
    loaded = C.read_simplex_spec(spec_file)
    assert isinstance(loaded, C.ChoquetSeq) and loaded.A == seq.A


def test_simplex_spec_extreme_points(tmp_path):
    f = tmp_path / "s.cfg"
    f.write_text("extreme_points 2\n")
    assert C.read_simplex_spec(f) == 2


def test_matrices_file_rejects_nonpositive(tmp_path):
    mats = tmp_path / "m.txt"
    mats.write_text("p 4 32\nr 1\nmatrix 3 3\n1 1 1\n0 30 12\n62 33 51\n")
    with pytest.raises(C.SimplexBuildError, match="positive"):
        C.read_matrices_file(mats)


@pytest.mark.parametrize("e", [3, 4])
def test_more_extreme_points_build_and_separate(e):
    """With e + 1 patches on p1 = 4 the last marker sits in column 3; the
    hierarchy still validates, the cardinality formula and the anchor hold,
    and the e + 1 vertices give e distinct level-1 measure vectors."""
    cb = C.build_choquet_spec(e, 3, mode="toy", ratio_cap=16)  # sides 4, 32, 512
    spec, seq, w = cb.spec, cb.seq, cb.witness
    assert spec.k(1) == e + 1 and spec.base[0].width == 4
    assert H.validate_scheme(spec).ok and C.validate_choquet_seq(seq).ok
    for n in (2, 3):
        for k in range(1, seq.k[n - 1] + 1):
            assert C.patch_cardinality(seq, w.i0, n, k) == H.materialize(spec, n, k).popcount()
            assert spec.step_count_matrix(n)[0][k - 1] == 1
    level1 = {
        tuple(next(v.values for v in C.measure_vectors(seq, 3, j) if v.level == 1))
        for j in range(1, seq.k[2] + 1)
    }
    assert len(level1) == e


def test_rigorous_hierarchy_depth_two_builds_and_validates(tmp_path, capsys):
    cb = C.build_choquet_spec(2, 2, mode="rigorous")
    assert cb.spec.levels[0].branching == 1024
    assert H.validate_scheme(cb.spec).ok
    assert C.validate_choquet_seq(cb.seq).ok
    assert cb.spec.step_count_matrix(2) == cb.seq.A[0]
    text = H.dumps_spec(cb.spec)
    assert H.dumps_spec(H.loads_spec(text)) == text
    (tmp_path / "c2.dhs").write_text(text)
    assert cli.main(["stats", "--spec", str(tmp_path / "c2.dhs")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split("\t")[4] for row in rows] == [str(n) for t in (1, 2) for n in cb.spec.popcounts(t)]


def test_rigorous_hierarchy_depth_three_builds_and_validates(tmp_path, capsys):
    """The level-3 grids are 474989023199232 blocks a side: they are built
    and written as bands, and the written spec loads, validates and counts
    under the default cap."""
    out = tmp_path / "c3.dhs"
    argv = ["gen", "--construction", "choquet", "--depth", "3", "--mode", "rigorous", "--out", str(out)]
    assert cli.main(argv) == 0
    assert "arrangement 474989023199232 474989023199232 bands 6\n" in out.read_text()
    spec = H.read_spec(out)
    assert H.dumps_spec(spec) == out.read_text()
    assert H.validate_scheme(spec).ok
    seq = C.make_choquet_seq(2, 3, mode="rigorous")
    assert spec.side(3) == seq.p[2] and [spec.step_count_matrix(t) for t in (2, 3)] == seq.A
    w = C.find_separating_coordinates(seq)
    for n in (2, 3):
        assert spec.popcounts(n) == [C.patch_cardinality(seq, w.i0, n, k) for k in (1, 2, 3)]
    jd, js = w.columns[3]
    assert C.measure_vectors(seq, 3, jd)[0].values[w.i0 - 1] == w.dbar
    assert C.measure_vectors(seq, 3, js)[0].values[w.i0 - 1] == w.dbar_prime
    needle = tmp_path / "n.dpf"
    needle.write_text("PATCH 2 2 0 0\n11\n10\n")
    capsys.readouterr()
    for cmd in (["stats"], ["count", "--level", "3", "--id", "1"], ["freq", "--level-from", "3", "--level-to", "3"]):
        assert cli.main([cmd[0], "--spec", str(out), *(["--needle", str(needle)] if len(cmd) > 1 else []),
                         *cmd[1:]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9 + 1 + 1 + 3  # stats: a header and 3 patches a level; count; freq
    count = int(lines[10])
    built = C.build_choquet_spec(2, 3, mode="rigorous").spec
    assert count == H.count_occurrences(built, loads_patch(needle.read_text()), 3, 1)
    level, pid, _, num, den = lines[12].split("\t")[:5]
    assert (level, pid) == ("3", "1") and F(int(num), int(den)) == F(count, seq.p[2] ** 2)


def test_build_depth_exceeding_sequence_rejected(tmp_path):
    mats = tmp_path / "m.txt"
    mats.write_text("p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n")
    seq = C.read_matrices_file(mats)
    with pytest.raises(ValueError, match="holds 2 levels"):
        C.build_choquet_spec(2, 3, mode="toy", seq=seq)


def test_a_malformed_matrices_header_is_a_simplex_build_error(tmp_path):
    """The shared line parser raises PatchFormatError; the matrices reader
    keeps its own error class for library callers."""
    mats = tmp_path / "m.txt"
    mats.write_text("p 4 32\nr 1\nmatrix 3\n1 1 1\n30 30 12\n33 33 51\n")
    with pytest.raises(C.SimplexBuildError, match="'matrix 3'") as exc:
        C.read_matrices_file(mats)
    assert not isinstance(exc.value, PatchFormatError)
