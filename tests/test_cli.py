import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delone import cli, hierarchy, patch
from delone.nonrect import starting_patches


def run(*argv):
    return cli.main(list(argv))


def test_gen_ue_round_trip(tmp_path, capsys):
    out = tmp_path / "ue.dhs"
    rc = run("gen", "--construction", "ue", "--depth", "2", "--mode", "toy",
             "--out", str(out))
    assert rc == 0
    spec = hierarchy.read_spec(out)
    assert spec.kind == "ue" and spec.num_levels == 5
    ledger = (tmp_path / "ue.ledger.txt").read_text()
    assert "limit point density 13/16" in ledger
    assert "offset level 1->3: 7/162" in ledger


def test_gen_choquet_writes_k_ledger(tmp_path):
    out = tmp_path / "c.dhs"
    rc = run("gen", "--construction", "choquet", "--extreme-points", "2",
             "--depth", "3", "--ratio-cap", "8", "--out", str(out))
    assert rc == 0
    ledger = (tmp_path / "c.ledger.txt").read_text()
    assert "seqcheck unit_first_row: pass" in ledger
    assert "seqcheck column_sums: pass" in ledger
    spec = hierarchy.read_spec(out)
    assert spec.kind == "choquet" and spec.num_levels == 3


@pytest.mark.parametrize("e", [3, 4])
@pytest.mark.parametrize("mode, depth", [("toy", "2"), ("rigorous", "3")])
def test_gen_choquet_more_extreme_points(tmp_path, capsys, e, mode, depth):
    out = tmp_path / "c.dhs"
    rc = run("gen", "--construction", "choquet", "--extreme-points", str(e),
             "--depth", depth, "--mode", mode, "--out", str(out))
    assert rc == 0
    ledger = (tmp_path / "c.ledger.txt").read_text()
    assert "FAIL" not in ledger and "check all_children_used: pass" in ledger
    spec = hierarchy.read_spec(out)
    assert spec.k(1) == e + 1 and spec.num_levels == int(depth)
    _stats_and_count(tmp_path, capsys, out, spec)


_N2 = "PATCH 2 2 0 0\n11\n10\n"


def _stats_and_count(tmp_path, capsys, path, spec):
    """``stats`` prints a row per level and patch, and ``count`` of a 2x2
    needle in the top patch 1 prints one count; returns that count."""
    (tmp_path / "n2.dpf").write_text(_N2)
    capsys.readouterr()
    top = spec.num_levels
    assert run("stats", "--spec", str(path)) == 0
    assert run("count", "--spec", str(path), "--needle", str(tmp_path / "n2.dpf"),
               "--level", str(top), "--id", "1") == 0
    out, err = capsys.readouterr()
    *rows, count = out.splitlines()
    assert err == ""
    assert rows[0] == "level\tside\tpatches\tid\tpoints\tdensity"
    want = [(t, spec.side(t), spec.k(t), pid, spec.popcounts(t)[pid - 1], spec.density(t, pid))
            for t in range(1, top + 1) for pid in range(1, spec.k(t) + 1)]
    assert rows[1:] == ["\t".join(map(str, row)) for row in want]
    assert 0 <= int(count) <= (spec.side(top) - 1) ** 2
    return int(count)


def test_gen_rigorous_ledger_constants(tmp_path):
    out = tmp_path / "r.dhs"
    rc = run("gen", "--construction", "nonrect", "--depth", "1",
             "--mode", "rigorous", "--out", str(out))
    assert rc == 0
    ledger = (tmp_path / "r.ledger.txt").read_text()
    assert "1/5120000000000" in ledger           # gap slack for L=1, gap 1/8
    assert "4096000000000000000" in ledger       # scale floor
    assert "bracket the targets exactly" in ledger


def test_gen_rejects_overrides_in_rigorous_mode(tmp_path):
    rc = run("gen", "--construction", "nonrect", "--depth", "1",
             "--mode", "rigorous", "--m", "3", "--out", str(tmp_path / "x.dhs"))
    assert rc == 2


@pytest.mark.parametrize("construction,flags,names", [
    ("ue", ("--d1p", "11/16", "--d2p", "15/16"), "--d1p, --d2p"),
    ("choquet", ("--m", "3", "--blocks", "2", "--ell", "2", "--p-star", "2"),
     "--m, --blocks, --ell, --p-star"),
    ("choquet", ("--d1p", "3/4", "--d2p", "7/8", "--L-schedule", "1,2", "--n1-steps", "2"),
     "--d1p, --d2p, --L-schedule, --n1-steps"),
    ("nonrect", ("--extreme-points", "2", "--ratio-cap", "8"), "--extreme-points, --ratio-cap"),
    ("ue", ("--stripe-rule", "scaled", "--simplex-spec", "s.cfg"), "--simplex-spec, --stripe-rule"),
], ids=["ue-targets", "choquet-block-params", "choquet-schedule", "nonrect-simplex",
        "ue-simplex"])
def test_gen_rejects_flags_the_construction_does_not_read(tmp_path, capsys, construction,
                                                         flags, names):
    out = tmp_path / "x.dhs"
    rc = run("gen", "--construction", construction, "--depth", "2", *flags, "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"gen: --construction {construction} does not read {names}\n")
    assert not out.exists()


def test_gen_flag_check_follows_the_param_file(tmp_path, capsys):
    pf = tmp_path / "p.cfg"
    pf.write_text("d1p=11/16\nd2p=15/16\n")
    rc = run("gen", "--construction", "ue", "--depth", "1", "--params", str(pf),
             "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    assert "does not read --d1p, --d2p" in capsys.readouterr().err


def test_gen_rejects_p_star_in_rigorous_mode(tmp_path):
    rc = run("gen", "--construction", "ue", "--depth", "1", "--mode", "rigorous",
             "--p-star", "3", "--out", str(tmp_path / "x.dhs"))
    assert rc == 2


@pytest.mark.parametrize("flags,err", [(("--m", "0", "--blocks", "0"), "m must be"),
                                       (("--blocks", "0"), "N, ell must be positive"),
                                       (("--ell", "0"), "N, ell must be positive")])
def test_gen_zero_valued_flags_are_usage_errors(tmp_path, capsys, flags, err):
    out = tmp_path / "z.dhs"
    rc = run("gen", "--construction", "nonrect", "--depth", "1", *flags, "--out", str(out))
    assert rc == 2
    assert err in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("construction,flags,step", [
    ("nonrect", ("--n1-steps", "5"), 5),
    ("nonrect", ("--n1-steps", "0"), 0),
    ("ue", ("--n1-steps", "1,2"), 2),
    ("nonrect", ("--params", "N1_steps=5"), 5),
], ids=["past-depth", "zero", "ue-one-past", "param-file"])
def test_gen_n1_step_outside_the_depth_is_a_usage_error(tmp_path, capsys, construction, flags, step):
    """A step outside 1..depth exits 2 with one line naming it, writing
    neither the descriptor nor the ledger."""
    if flags[0] == "--params":
        (tmp_path / "p.cfg").write_text(flags[1] + "\n")
        flags = ("--params", str(tmp_path / "p.cfg"))
    out = tmp_path / "z.dhs"
    rc = run("gen", "--construction", construction, "--depth", "1", *flags, "--out", str(out))
    assert rc == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err == f"error: N=1 step {step} outside the steps 1..1\n"
    assert not out.exists() and not (tmp_path / "z.ledger.txt").exists()


def test_gen_param_file(tmp_path):
    pf = tmp_path / "p.cfg"
    pf.write_text("depth=2\nmode=toy\nm=1\nN=2\nell=1\nN1_steps=2\n")
    out = tmp_path / "n.dhs"
    rc = run("gen", "--construction", "nonrect", "--depth", "1",
             "--params", str(pf), "--out", str(out))
    assert rc == 0
    spec = hierarchy.read_spec(out)
    assert spec.num_levels == 3
    assert spec.levels[1].n_is_one


def test_export_pbm_closed(tmp_path):
    dpf = tmp_path / "q.dpf"
    patch.write_patch(dpf, starting_patches()[0])
    out = tmp_path / "q.pbm"
    rc = run("export", "--patch", str(dpf), "--format", "pbm", "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert text.startswith("P1\n5 5\n")
    assert sum(int(t) for t in text.split("\n", 2)[2].split()) == 19


def test_export_round_trip_and_points(tmp_path):
    out = tmp_path / "s.dhs"
    run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(out))
    dpf = tmp_path / "top.dpf"
    rc = run("export", "--spec", str(out), "--level", "2", "--id", "1",
             "--format", "dpf", "--out", str(dpf))
    assert rc == 0
    spec = hierarchy.read_spec(out)
    top = hierarchy.materialize(spec, 2, 1)
    assert patch.read_patch(dpf) == top
    pts = tmp_path / "top.points"
    run("export", "--spec", str(out), "--level", "2", "--id", "1",
        "--format", "points", "--out", str(pts))
    assert len(patch.read_points(pts)) == top.popcount()


def test_export_cap_exit_code(tmp_path):
    out = tmp_path / "big.dhs"
    run("gen", "--construction", "ue", "--depth", "3", "--out", str(out))
    rc = run("export", "--spec", str(out), "--level", "7", "--id", "1",
             "--format", "points", "--cell-cap", "1000000",
             "--out", str(tmp_path / "nope.txt"))
    assert rc == 3


@pytest.mark.parametrize("fmt", ["pbm", "dpf", "points"])
def test_export_over_the_cap_writes_nothing(tmp_path, capsys, fmt):
    # the streamed pbm/dpf writers are charged the whole window, like points,
    # before the output file is opened
    spec = tmp_path / "s.dhs"
    run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(spec))
    cells = hierarchy.read_spec(spec).cell_count(2)
    capsys.readouterr()
    out = tmp_path / f"w.{fmt}"
    rc = run("export", "--spec", str(spec), "--level", "2", "--id", "1", "--format", fmt,
             "--cell-cap", str(cells - 1), "--out", str(out))
    assert rc == 3
    err = f"resource cap: materializing level 2 patch 1 requires {cells} cells (cap {cells - 1})\n"
    assert capsys.readouterr() == ("", err)
    assert not out.exists()
    assert run("export", "--spec", str(spec), "--level", "2", "--id", "1", "--format", fmt,
               "--cell-cap", str(cells), "--out", str(out)) == 0


@pytest.mark.parametrize("cmd,extra", [("export", ("--format", "pbm", "--out", "x.pbm")),
                                       ("repetitivity", ("--r", "1"))])
@pytest.mark.parametrize("inputs", [(), ("--spec", "s.dhs", "--patch", "p.dpf")],
                         ids=["neither", "both"])
def test_spec_and_patch_are_one_required_choice(capsys, cmd, extra, inputs):
    with pytest.raises(SystemExit) as exc:
        run(cmd, *inputs, *extra)
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err


def test_bad_cell_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.dhs"
    run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(out))
    export = ("export", "--spec", str(out), "--level", "2", "--format", "pbm",
              "--out", str(tmp_path / "x.pbm"))
    assert run(*export, "--cell-cap", "-5") == 2
    assert capsys.readouterr().err == "error: the cell cap must be a positive integer, not '-5'\n"
    monkeypatch.setenv("DELONE_CELL_CAP", "abc")
    assert run(*export) == 2
    assert "DELONE_CELL_CAP must be a positive integer" in capsys.readouterr().err
    assert run("constants", "--L", "1", "--eps", "1") == 0  # allocates no cells


def test_gen_under_a_bad_cap_writes_no_file(tmp_path, capsys, monkeypatch):
    """The descriptor writer reads the cap before it opens the file."""
    monkeypatch.setenv("DELONE_CELL_CAP", "abc")
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--construction", "ue", "--depth", "2", "--mode", "toy", "--out", "u.dhs") == 2
    assert capsys.readouterr() == ("", "error: DELONE_CELL_CAP must be a positive integer, not 'abc'\n")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# one cell cap, read per call; a bad cap exits 2
# ----------------------------------------------------------------------

def test_the_per_call_cap_comes_before_the_default(tmp_path, capsys, monkeypatch):
    """``--cell-cap`` passes an export that a lower ``DELONE_CELL_CAP``
    would refuse, and refuses a block-aligned count (exit 3); a cap that is
    not a positive integer, from either, exits 2, and a command that
    allocates no cells never reads it."""
    monkeypatch.delenv("DELONE_CELL_CAP", raising=False)
    spec, needle = str(tmp_path / "n.dhs"), str(tmp_path / "n2.dpf")
    assert run("gen", "--construction", "nonrect", "--depth", "1", "--blocks", "7", "--out", spec) == 0
    export = ("export", "--spec", spec, "--level", "2", "--id", "1")
    assert run(*export, "--format", "dpf", "--out", needle) == 0
    monkeypatch.setenv("DELONE_CELL_CAP", "100")
    assert run(*export, "--format", "pbm", "--cell-cap", "1000000", "--out", str(tmp_path / "a.pbm")) == 0
    monkeypatch.delenv("DELONE_CELL_CAP")
    capsys.readouterr()
    count = ("count", "--spec", spec, "--needle", needle, "--level", "2", "--id", "1", "--mode", "block_aligned")
    assert run(*count, "--cell-cap", "100") == 3
    assert capsys.readouterr() == (
        "", "resource cap: block-aligned count of level 2 patches requires 3600 cells (cap 100)\n")
    monkeypatch.setenv("DELONE_CELL_CAP", "abc")
    assert run(*export, "--format", "pbm", "--out", str(tmp_path / "b.pbm")) == 2
    assert capsys.readouterr() == ("", "error: DELONE_CELL_CAP must be a positive integer, not 'abc'\n")
    monkeypatch.delenv("DELONE_CELL_CAP")
    assert run(*export, "--format", "pbm", "--cell-cap", "-5", "--out", str(tmp_path / "c.pbm")) == 2
    assert capsys.readouterr() == ("", "error: the cell cap must be a positive integer, not '-5'\n")
    monkeypatch.setenv("DELONE_CELL_CAP", "abc")
    assert run("constants", "--L", "1", "--eps", "1") == 0


# ----------------------------------------------------------------------
# a malformed descriptor and unread gen flags exit 2
# ----------------------------------------------------------------------

_BAD_DHS = "DHS 1\nlevel 1 patches 1\nPATCH 1 1 0 0\n1\nlevel 2 patches 1\narrangement 2 2\n1 1\n1 7\n"


@pytest.mark.parametrize("argv", [
    ("stats", "--spec", "bad.dhs"),
    ("gen", "--construction", "choquet", "--depth", "2", "--blocks", "3", "--out", "x.dhs"),
    ("gen", "--construction", "ue", "--depth", "1", "--d1p", "3/4", "--d2p", "7/8", "--out", "y.dhs"),
], ids=["child-id-past-k", "choquet-blocks", "ue-targets"])
def test_a_malformed_descriptor_and_unread_gen_flags_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.dhs").write_text(_BAD_DHS)
    assert run(*argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.dhs"]


@pytest.mark.parametrize("height, width, need, what", [
    # sides 4, 12, 36: an 8x8 needle counted at level 3 cuts 4 * 7 * 7 = 196
    # cells of junction tiles at level 2, its largest allocation
    (8, 8, 196, "junction block"),
    # an 8-high, 2-wide needle cuts horizontal seam strips of 12 * 2 * 7 =
    # 168 cells at level 2, in true orientation, its largest allocation
    (8, 2, 168, "horizontal seam strip"),
], ids=["junction", "horizontal-seam"])
def test_a_sliding_count_is_refused_one_cell_below_its_need(tmp_path, capsys, height, width, need, what):
    spec, needle = tmp_path / "t.dhs", tmp_path / "n.dpf"
    assert run("gen", "--construction", "nonrect", "--depth", "1", "--ell", "2", "--blocks", "1",
               "--out", str(spec)) == 0
    top = hierarchy.materialize(hierarchy.read_spec(spec), 3, 1).cells
    patch.write_patch(needle, patch.Patch(top[:height, :width].copy()))
    capsys.readouterr()
    count = ("count", "--spec", str(spec), "--needle", str(needle), "--level", "3", "--id", "1")
    assert run(*count, "--cell-cap", str(need - 1)) == 3
    assert capsys.readouterr() == ("", f"resource cap: {what} at level 2 requires {need} cells (cap {need - 1})\n")
    assert run(*count, "--cell-cap", str(need)) == 0
    assert int(capsys.readouterr().out) == hierarchy.scan_count(top, patch.read_patch(needle))


def test_a_periodic_pair_is_charged_to_the_per_call_cap(tmp_path, capsys, monkeypatch):
    """A 4x4 arrangement of band rows (2 1)x2 under (1 2)x2: pairing them
    writes out 4 cells, charged to ``--cell-cap``, not to ``DELONE_CELL_CAP``."""
    (tmp_path / "p.dhs").write_text(
        "DHS 1\nlevel 1 patches 2\nPATCH 2 2 0 0\n00\n00\nPATCH 2 2 0 0\n10\n01\nlevel 2 patches 1\n"
        "arrangement 4 4 bands 2\nband 2 pieces 1\n2 2 1 1 1\nband 2 pieces 1\n2 1 1 2 1\n")
    (tmp_path / "p.dpf").write_text("PATCH 2 1 0 0\n10\n")
    monkeypatch.setenv("DELONE_CELL_CAP", "3")
    count = ("count", "--spec", str(tmp_path / "p.dhs"), "--needle", str(tmp_path / "p.dpf"),
             "--level", "2", "--id", "1")
    assert run(*count, "--cell-cap", "1000000") == 0
    assert capsys.readouterr() == ("14\n", "")
    assert run(*count, "--cell-cap", "3") == 3
    assert capsys.readouterr() == ("", "resource cap: writing out a periodic line requires 4 cells (cap 3)\n")


@pytest.mark.parametrize("level", ["0", "-1", "top + 1"])
def test_stats_refuses_a_level_outside_the_spec_before_any_output(tmp_path, capsys, level):
    spec = tmp_path / "n.dhs"
    assert run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(spec)) == 0
    top = hierarchy.read_spec(spec).num_levels
    level = str(top + 1) if level == "top + 1" else level
    capsys.readouterr()
    assert run("stats", "--spec", str(spec), "--level", level) == 2
    assert capsys.readouterr() == ("", f"error: level {level} outside 1..{top}\n")
    assert run("stats", "--spec", str(spec), "--level", str(top)) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + hierarchy.read_spec(spec).k(top) and all(r.startswith(f"{top}\t") for r in rows[1:])


def test_count_and_freq(tmp_path, capsys):
    out = tmp_path / "ue.dhs"
    run("gen", "--construction", "ue", "--depth", "1", "--out", str(out))
    capsys.readouterr()
    needle = tmp_path / "n.dpf"
    spec = hierarchy.read_spec(out)
    patch.write_patch(needle, spec.base[0])
    rc = run("count", "--spec", str(out), "--needle", str(needle),
             "--level", "2", "--id", "1", "--mode", "block_aligned")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8"
    rc = run("freq", "--spec", str(out), "--needle", str(needle),
             "--level-from", "1", "--level-to", "3")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "level", "patch_id", "needle_id", "density_num", "density_den",
        "bracket_lo", "bracket_hi",
    ]
    assert len(lines) == 1 + 6


@pytest.mark.parametrize("level,pid,mode", [
    ("3", "0", "sliding"), ("3", "-1", "sliding"), ("3", "9", "sliding"),
    ("1", "3", "sliding"), ("3", "5", "block_aligned"),
])
def test_count_rejects_a_patch_id_outside_the_level(tmp_path, capsys, level, pid, mode):
    out = tmp_path / "ue.dhs"
    run("gen", "--construction", "ue", "--depth", "3", "--mode", "toy", "--out", str(out))
    needle = tmp_path / "n.dpf"
    patch.write_patch(needle, hierarchy.read_spec(out).base[0])
    capsys.readouterr()
    rc = run("count", "--spec", str(out), "--needle", str(needle),
             "--level", level, "--id", pid, "--mode", mode)
    assert rc == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"error: patch id {pid} outside 1..2\n"


def test_repetitivity_cmd(tmp_path, capsys):
    out = tmp_path / "n.dhs"
    run("gen", "--construction", "nonrect", "--depth", "2", "--out", str(out))
    capsys.readouterr()
    rc = run("repetitivity", "--spec", str(out), "--level", "3", "--id", "1",
             "--r", "2")
    assert rc == 0
    assert int(capsys.readouterr().out.strip()) >= 2


def test_constants_cmd(capsys):
    rc = run("constants", "--L", "1", "--eps", "1/2", "--P", "1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "1/432" in out and "2160" in out and "4322" in out
    rc = run("constants", "--L", "2", "--d", "1", "--dp", "1/2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "1/10240000000000" in out


def test_constants_usage_error(capsys):
    assert run("constants", "--L", "1") == 2


def test_bilip_identity(tmp_path, capsys):
    from delone import maps, rectlab

    grid = rectlab.GridSpec(4, 2, 2)
    f = rectlab.identity_on(grid)
    path = tmp_path / "id.map"
    maps.write_map(path, f)
    rc = run("bilip", "--map", str(path), "--grid", "4", "2", "2",
             "--lambda", "1/10", "--tau", "1/10")
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations\t0" in out
    assert "regular_square\t1" in out
    assert "deviation_sq\t0" in out


def test_verify_exit_codes(capsys):
    assert run("verify", "--suite", "constants") == 0
    capsys.readouterr()
    assert run("verify", "--suite", "nope") == 2


@pytest.mark.parametrize("flags", [("--trials", "-5"), ("--trials", "0"), ("--depth", "0"),
                                   ("--depth", "-1"), ("--trials", "x")])
def test_verify_counts_are_positive_integers(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run("verify", "--suite", "core", *flags)
    assert exc.value.code == 2
    got = capsys.readouterr()
    errors = [ln for ln in got.err.splitlines() if "error:" in ln]
    assert got.out == "" and len(errors) == 1 and flags[0] in errors[0]


def test_verify_unknown_suite_is_one_plain_line(capsys):
    assert run("verify", "--suite", "nope") == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == ("error: unknown suite 'nope'; available: constants, core, isoper, ue, "
                       "scheme, counting, rect, choquet, all\n")


def test_verify_names_the_failing_fixture(capsys, monkeypatch):
    from delone import suites

    key = (F(1), F(1), 1)
    monkeypatch.setitem(suites.REGULARITY_FIXTURES, key, (F(1, 107), 540, 1082))
    assert run("verify", "--suite", "constants") == 1
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "suite\tcheck\tstatus\tdetail" and len(rows) == 5
    assert [r.split("\t")[2] for r in rows] == ["FAIL", "pass", "pass", "pass", "pass"]
    assert rows[0].startswith("constants\tregularity\tFAIL\t") and str(key) in rows[0]


def test_unknown_rational_rejected():
    with pytest.raises(SystemExit) as exc:
        run("constants", "--L", "x/y")
    assert exc.value.code == 2


def test_gen_choquet_user_matrices(tmp_path, capsys):
    (tmp_path / "mats.txt").write_text(
        "p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n"
    )
    (tmp_path / "simplex.cfg").write_text("matrices mats.txt\n")
    out = tmp_path / "user.dhs"
    rc = run("gen", "--construction", "choquet", "--depth", "2",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(out))
    assert rc == 0
    assert "FAIL" not in (tmp_path / "user.ledger.txt").read_text()
    spec = hierarchy.read_spec(out)
    assert spec.num_levels == 2 and spec.k(1) == 3
    assert spec.step_count_matrix(2)[1] == [30, 30, 12]
    assert _stats_and_count(tmp_path, capsys, out, spec) == hierarchy.scan_count(
        hierarchy.materialize(spec, 2, 1).cells, patch.loads_patch(_N2))


def test_gen_choquet_ledger_reports_the_simplex_spec_build(tmp_path):
    (tmp_path / "simplex.cfg").write_text("extreme_points 3\n")
    out = {}
    for name, flags in (("spec", ("--simplex-spec", str(tmp_path / "simplex.cfg"))),
                        ("flag", ("--extreme-points", "3"))):
        assert run("gen", "--construction", "choquet", "--depth", "2", *flags,
                   "--out", str(tmp_path / f"{name}.dhs")) == 0
        out[name] = (tmp_path / f"{name}.dhs").read_bytes(), (tmp_path / f"{name}.ledger.txt").read_text()
    assert out["spec"] == out["flag"]
    assert "extreme points 3;" in out["spec"][1]


def test_gen_choquet_extreme_points_and_simplex_spec_exclusive(tmp_path, capsys):
    (tmp_path / "simplex.cfg").write_text("extreme_points 3\n")
    with pytest.raises(SystemExit) as exc:
        run("gen", "--construction", "choquet", "--depth", "2", "--extreme-points", "4",
            "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert exc.value.code == 2
    got = capsys.readouterr()
    errors = [ln for ln in got.err.splitlines() if "error:" in ln]
    assert got.out == "" and len(errors) == 1 and "--extreme-points" in errors[0]
    assert not (tmp_path / "x.dhs").exists()


def test_gen_choquet_depth_beyond_the_matrices_exits_2(tmp_path, capsys):
    (tmp_path / "mats.txt").write_text("p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n")
    (tmp_path / "simplex.cfg").write_text("matrices mats.txt\n")
    rc = run("gen", "--construction", "choquet", "--depth", "5",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sequence holds 2 levels, requested 5\n"
    assert not (tmp_path / "x.dhs").exists()


@pytest.mark.parametrize("header", ["matrix 3", "matrix 0 3", "dim"])
def test_gen_choquet_malformed_matrices_header(tmp_path, capsys, header):
    (tmp_path / "mats.txt").write_text(f"p 4 32\nr 1\n{header}\n1 1 1\n30 30 12\n33 33 51\n")
    (tmp_path / "simplex.cfg").write_text("matrices mats.txt\n")
    rc = run("gen", "--construction", "choquet", "--depth", "2",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(header) in err


@pytest.mark.parametrize("line", ["extreme_points", "matrices", "foo", "extreme_points x"])
def test_gen_choquet_malformed_simplex_spec(tmp_path, capsys, line):
    (tmp_path / "simplex.cfg").write_text(f"{line}\n")
    rc = run("gen", "--construction", "choquet", "--depth", "2",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and repr(line) in err


@pytest.mark.parametrize("bad,line", [("p 4 32", "p 4 x"), ("r 1", "r one"),
                                      ("30 30 12", "30 3x 12")])
def test_gen_choquet_non_integer_matrices_field(tmp_path, capsys, bad, line):
    text = "p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n".replace(bad, line)
    (tmp_path / "mats.txt").write_text(text)
    (tmp_path / "simplex.cfg").write_text("matrices mats.txt\n")
    rc = run("gen", "--construction", "choquet", "--depth", "2",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(line) in err


@pytest.mark.parametrize("good,line", [("p 4 32", "p 0 32"), ("p 4 32", "p 4 -8"), ("r 1", "r 0")])
def test_gen_choquet_non_positive_scale_exits_2(tmp_path, capsys, good, line):
    text = "p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n".replace(good, line)
    (tmp_path / "mats.txt").write_text(text)
    (tmp_path / "simplex.cfg").write_text("matrices mats.txt\n")
    rc = run("gen", "--construction", "choquet", "--depth", "2",
             "--simplex-spec", str(tmp_path / "simplex.cfg"), "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and repr(line) in err


@pytest.mark.parametrize("construction,line", [("nonrect", "blocks=3"), ("choquet", "ratio_cap=64"),
                                               ("nonrect", "=3"), ("nonrect", "N 3")])
def test_gen_rejects_a_param_key_it_does_not_read(tmp_path, capsys, construction, line):
    pf = tmp_path / "p.cfg"
    pf.write_text(f"mode=toy\n{line}\n")
    out = tmp_path / "x.dhs"
    rc = run("gen", "--construction", construction, "--depth", "2", "--params", str(pf),
             "--out", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(line) in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["depth=abc", "N = 1.5", "ell=", "N1_steps = q"])
def test_gen_param_file_names_a_non_integer_value(tmp_path, capsys, line):
    pf = tmp_path / "p.cfg"
    pf.write_text(f"mode=toy\n{line}\n")
    rc = run("gen", "--construction", "nonrect", "--depth", "1", "--params", str(pf),
             "--out", str(tmp_path / "x.dhs"))
    assert rc == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.count("\n") == 1 and repr(line) in got.err


def test_needle_with_an_empty_full_boundary_cell_exits_2(tmp_path, capsys):
    spec = tmp_path / "n.dhs"
    run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(spec))
    (tmp_path / "bad.dpf").write_text("PATCH 2 2 0 0 full_boundary\n11\n10\n")
    capsys.readouterr()
    rc = run("count", "--spec", str(spec), "--needle", str(tmp_path / "bad.dpf"),
             "--level", "1", "--id", "1")
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "full_boundary" in err


def test_repetitivity_patch_input(tmp_path, capsys):
    dpf = tmp_path / "w.dpf"
    import numpy as np

    cells = np.zeros((9, 9), dtype=np.uint8)
    cells[:, 0::2] = 1
    patch.write_patch(dpf, patch.Patch(cells))
    rc = run("repetitivity", "--patch", str(dpf), "--r", "1")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_repetitivity_past_r_8_exits_2(tmp_path, capsys):
    """Codes of r = 9 would need more than 64 bits."""
    cells = np.zeros((27, 27), dtype=np.uint8)
    cells[:, 0::2] = 1
    patch.write_patch(tmp_path / "w.dpf", patch.Patch(cells))
    assert run("repetitivity", "--patch", str(tmp_path / "w.dpf"), "--r", "8") == 0
    assert capsys.readouterr() == ("9\n", "")
    assert run("repetitivity", "--patch", str(tmp_path / "w.dpf"), "--r", "9") == 2
    assert capsys.readouterr() == ("", "error: pattern side above 8 is not supported\n")


def test_patch_and_needle_read_what_export_writes(ue3_dhs, tmp_path, capsys):
    """``--patch`` and ``--needle`` take the PBM ``export`` writes as they
    take its .dpf: the same radius and the same counts."""
    got = {}
    for fmt in ("pbm", "dpf"):
        window, needle = str(tmp_path / f"w.{fmt}"), str(tmp_path / f"n.{fmt}")
        for level, out in ((4, window), (2, needle)):
            assert run("export", "--spec", ue3_dhs, "--level", str(level), "--id", "1", "--format", fmt,
                       "--out", out) == 0
        capsys.readouterr()
        assert run("repetitivity", "--patch", window, "--r", "2") == 0
        for mode in ("sliding", "block_aligned"):
            assert run("count", "--spec", ue3_dhs, "--needle", needle, "--level", "4", "--id", "1",
                       "--mode", mode) == 0
        assert run("freq", "--spec", ue3_dhs, "--needle", needle, "--level-from", "3", "--level-to", "4") == 0
        got[fmt] = capsys.readouterr()
    spec = hierarchy.read_spec(ue3_dhs)
    window, needle = hierarchy.materialize(spec, 4, 1), hierarchy.materialize(spec, 2, 1)
    want = [hierarchy.estimate_repetitivity(window, 2), hierarchy.scan_count(window.cells, needle),
            hierarchy.aligned_block_counts(window.cells, spec, 2)[0]]
    assert got["pbm"] == got["dpf"] and got["pbm"].err == ""
    assert got["pbm"].out.splitlines()[:3] == [str(v) for v in want]


def test_suite_all_wiring():
    from delone import suites

    rows = suites.run_suite("all", trials=5, seed=1)
    assert rows and all(r.ok for _, r in rows)
    names = {suite for suite, _ in rows}
    assert names == {"constants", "core", "isoper", "ue", "scheme",
                     "counting", "rect", "choquet"}


_EXTRA = ("--blocks", "2", "--ell", "2", "--n1-steps", "2", "--L-schedule", "1,3/2,2")

# sha256 of the .dhs and of the ledger for each run, or the one-line error
# of a run that must exit 2.
GOLDEN_GEN = [
    (("nonrect", "rigorous", "1"), (),
     ("4b97de6efbb4c0be62024e19c2d3168aaadc0fc89cfc792e4bba03bef6f40a35",
      "d86c2b5c8321838f364ce08281c084d1ee413c84d6fdfc4d93683fe7c2785cdc")),
    (("nonrect", "toy", "3"), (),
     ("2a132995b791a48764506d87b6e048dd15e159888009fb0b7ece1de486d47198",
      "d5ead06c11906f9dd0479e841a8b36c5c86812d53d2c7f286078a37067592f38")),
    (("nonrect", "toy", "3"), _EXTRA,
     ("a6adbf1e97401a32bd5363d6236b9dc0886ac80223849702a90d0e35e9eabd97",
      "120affad59c2a8473597f03011e91bdd1dfdbc76b13d1baa1c631cdaec53864c")),
    (("nonrect", "toy", "1"), ("--d1p", "11/16", "--d2p", "15/16"),
     ("e56b22a9b93ab8b3ee5ab279d489bc083df836c55c34ad9d33ffe96104ee83df",
      "105b42b6f06e04e38d745131e929b9ea82648e2b04b4a3a33c2fad7a7f9a982b")),
    (("ue", "rigorous", "1"), (),
     ("8ffd79f1f8b881aa037f83fd70f00acd494cefea15a7d4712640337f53cf8b0a",
      "9761f80621a5fbe60901ac384cf9a63e194f4ec52cb31d93d59225ad86bae0cc")),
    (("ue", "toy", "3"), (),
     ("5b93c09fd593454dc49c4a92d946c4b1ab146804e1e655be9d4fba09aa70bb5a",
      "cf4b904e4c114766b43b0e4dee784cb2ba20cbe9dbef83d4110cbc24ae68e162")),
    (("ue", "toy", "5"), (),
     ("1f9f5e9d5985cb9c42090379b380e332a6ca8acbe6c5dfbc3f00654fc581cc3e",
      "2af3b289214829a9d1123c575ac917ffb56cfb349d3d99fea6d4fb42196a3025")),
    (("ue", "toy", "3"), _EXTRA,
     ("a3f9c73d0a8bd30389a610ab8f44dcc701dc18c71414c2ce17f09ef118fcf700",
      "b8fa6e576cd35bf3cfda6012452ae1ce9380c6fca81fb88ccb75b5e57a14fc01")),
    (("choquet", "rigorous", "2"), (),
     ("3b8c6c0873a026f36a8d563ed10e7bf692f20fc44361af1b0d1cbcb92fe54236",
      "f8e0ca5ac9bfcb36914550cc96cbdc4c9297dff5776937d72fb902a4bac1ba9f")),
    (("choquet", "toy", "3"), (),
     ("2984efcae2a33c758e513789d456d6c0080e30b71b53798d59e83107548df60b",
      "bd80193eb063496863040d491865dd7b6841c4f757d66617be947b0f97870ee1")),
    (("nonrect", "rigorous", "2"), ("--n1-steps", "2"),
     "error: step 2: level budget exhausted; raise max_levels"),
]


@pytest.mark.parametrize(
    "run_id,extra,want", GOLDEN_GEN,
    ids=[f"{c}-{m}-{d}" + ("-flags" if x else "") for (c, m, d), x, _ in GOLDEN_GEN],
)
def test_gen_golden(tmp_path, capsys, run_id, extra, want):
    import hashlib

    construction, mode, depth = run_id
    out = tmp_path / "g.dhs"
    rc = run("gen", "--construction", construction, "--depth", depth,
             "--mode", mode, *extra, "--out", str(out))
    if isinstance(want, str):
        assert rc == 2
        assert capsys.readouterr().err.strip() == want
        return
    assert rc == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out, tmp_path / "g.ledger.txt"))
    assert got == want


_BILIP_ARGS = {
    "stretched": ("--lambda", "1/10", "--tau", "1/10", "--expand", "1/2,1"),
    "unstretched": ("--lambda", "1", "--tau", "1/100", "--expand", "1/2,1"),
    "no-gap": ("--lambda", "1/10", "--tau", "1/10", "--expand", "3/4,1/2"),
}

# sha256 of bilip stdout for sampling.random_bilip_map(random.Random(seed))
# on the grid's window, under each argument set: violations with a witness,
# no violation with regular squares found or not, and a missing density gap
GOLDEN_BILIP = {
    "stretched": {
        (1, (8, 2, 2)): "334e4d09440b5edf3cf313ad655909483484c22af77fb3b21ecae48999ce06bc",
        (1, (32, 4, 8)): "03bf67c2d8d9c0f0f360229ef75893ddb69b94530966c9bcc7765e839f7a1d7e",
        (2, (8, 2, 2)): "8e02886500d97916e84828956ea13dfc2547ad58e7100cac3aabd0086ae612ed",
        (2, (32, 4, 8)): "573838c20b133f1fab55c29a88083fdfb28ec8ae1078b64c8f23b9dd59bfd4c0",
        (3, (8, 2, 2)): "1d0bc76c237e1bf663cead7ec76371052ccdf2526530931c44bd7eabb3f9108f",
        (3, (32, 4, 8)): "986a3b74ce360c231638551800c1c6b7e8fe5df59ad7f11b5c2e1e413ae7fe2f",
    },
    "unstretched": {
        (1, (8, 2, 2)): "9458e64d348acfb5ef2dd82953580930b60d4ddd508225c8737bb8adaabc1167",
        (1, (32, 4, 8)): "f883bd1cdbba75e8e82ff917c4ae187ad4a157585366f071234fa83e8c4a05f0",
        (2, (8, 2, 2)): "0e6f75f9470dbcfae6d662be8155bb5cfb7f425e1288ec1841e0a99484753e65",
        (2, (32, 4, 8)): "c637d7e4e6eb613fbfd4ebe5c5fabf8051ff18acf308af3a7fc623086b5f4f92",
        (3, (8, 2, 2)): "c637d7e4e6eb613fbfd4ebe5c5fabf8051ff18acf308af3a7fc623086b5f4f92",
        (3, (32, 4, 8)): "3174e42404f1b6ba7b38df86e1f3c992b6ce5a7f1fedecbcc00cc835a8c93206",
    },
    "no-gap": {
        (1, (8, 2, 2)): "474a81a322b3f4c48ed3f342c61e80bab689fce72e533ff79dc2fdd104ebc06e",
        (1, (32, 4, 8)): "3e15dfae5e8144892fd6d52d5a62d15b4aa764e05ed2e343ba05891f1d2a6529",
        (2, (8, 2, 2)): "e79f988cd2feccafac544a26afefb0556819e3722eaa74a2644e920b88cab09f",
        (2, (32, 4, 8)): "ef133fa483b26df5c22b9fff7285ff76dc230781287d207b57d04f345a2fc79e",
        (3, (8, 2, 2)): "f14edb1981ed10f99933bed622f12fedc80161e8392886581eace0f8a071b613",
        (3, (32, 4, 8)): "c9e40de5f4d7da5033e39e9acaf74dafa482e7a3ddf5d12317fba3d9724918b1",
    },
}


def _bilip_map(tmp_path, seed, grid):
    import random

    from delone import maps, sampling

    m, n, _ = grid
    path = tmp_path / f"m{seed}.map"
    maps.write_map(path, sampling.random_bilip_map(random.Random(seed), 2 * m * n + 1, m + 1))
    return str(path)


@pytest.mark.parametrize("args", sorted(GOLDEN_BILIP))
def test_bilip_golden(tmp_path, capsys, args):
    import hashlib

    got = {}
    for seed, grid in GOLDEN_BILIP[args]:
        path = _bilip_map(tmp_path, seed, grid)
        assert run("bilip", "--map", path, "--grid", *map(str, grid), *_BILIP_ARGS[args]) == 0
        got[seed, grid] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_BILIP[args]


def test_bilip_extends_the_map_once(tmp_path, capsys, monkeypatch):
    from delone import maps, rectlab

    calls = []
    real = maps.hat_extend

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(maps, "hat_extend", counted)
    monkeypatch.setattr(rectlab, "hat_extend", counted)
    path = _bilip_map(tmp_path, 1, (8, 2, 2))
    assert run("bilip", "--map", path, "--grid", "8", "2", "2", *_BILIP_ARGS["stretched"]) == 0
    assert "deviation_sq" in capsys.readouterr().out
    assert len(calls) == 1


def test_bilip_never_builds_the_images_dict(tmp_path, capsys, monkeypatch):
    """Every bilip pass reads the map's arrays; none asks for ``images``."""
    from delone import maps

    def refuse(f):
        raise AssertionError("the images dict was built")

    path = _bilip_map(tmp_path, 1, (8, 2, 2))
    monkeypatch.setattr(maps.CandidateMap, "images", property(refuse))
    assert run("bilip", "--map", path, "--grid", "8", "2", "2", *_BILIP_ARGS["stretched"]) == 0
    assert "expanding_witness" in capsys.readouterr().out


def test_bilip_identity_sits_on_the_stretch_bound(tmp_path, capsys):
    """With lambda 0 every identity step equals the bound: no violation
    (the check is strict) and the first step is the expanding witness
    (the search is not)."""
    from delone import maps, rectlab

    path = tmp_path / "id.map"
    maps.write_map(path, rectlab.identity_on(rectlab.GridSpec(4, 2, 2)))
    assert run("bilip", "--map", str(path), "--grid", "4", "2", "2", "--lambda", "0",
               "--expand", "1/2,1") == 0
    assert capsys.readouterr().out == "violations\t0\nexpanding_witness\t(0, 0)\twitness found\n"


def test_bilip_is_scale_invariant_past_int64(tmp_path, capsys):
    """Images times 10^23 run every pass on Python ints: the same violations,
    regular square and witness, and deviation_sq times 10^46."""
    import random

    from delone import maps, sampling

    f = sampling.random_bilip_map(random.Random(1), 33, 9)
    big = maps.CandidateMap(f.window, {p: (u * 10**23, v * 10**23) for p, (u, v) in f.images.items()})
    outs = []
    for g, name in ((f, "m.map"), (big, "big.map")):
        maps.write_map(tmp_path / name, g)
        assert run("bilip", "--map", str(tmp_path / name), "--grid", "8", "2", "2",
                   *_BILIP_ARGS["stretched"]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    (dev,) = [n for n, ln in enumerate(outs[0]) if ln.startswith("deviation_sq")]
    assert outs[0][:dev] + outs[0][dev + 1:] == outs[1][:dev] + outs[1][dev + 1:]
    small, large = (F(out[dev].split("\t")[1]) for out in outs)
    assert large == small * 10**46 and small > 0


@pytest.mark.parametrize("cmd,flags,named", [
    ("bilip", ("--expand", "3/4"), "--expand"),
    ("bilip", ("--expand", "a,b"), "--expand"),
    ("bilip", ("--lambda", "-3"), "--lambda"),
    ("bilip", ("--lambda", "-1"), "--lambda"),
    ("bilip", ("--tau", "2"), "--tau"),
    ("bilip", ("--tau", "1"), "--tau"),
    ("bilip", ("--tau", "-1"), "--tau"),
    ("gen", ("--n1-steps", "x"), "--n1-steps"),
    ("gen", ("--L-schedule", "1,y"), "--L-schedule"),
    ("gen", ("--d2p", "zz"), "--d2p"),
], ids=["expand-one", "expand-words", "lambda-minus-3", "lambda-minus-1", "tau-2", "tau-1",
        "tau-minus-1", "n1-steps", "L-schedule", "d2p"])
def test_a_bad_flag_value_exits_2_naming_it_before_any_output(tmp_path, capsys, cmd, flags,
                                                              named):
    """argparse prints its usage, then one error line naming the flag."""
    out = tmp_path / "x.dhs"
    if cmd == "bilip":
        argv = ("bilip", "--map", _bilip_map(tmp_path, 1, (8, 2, 2)), "--grid", "8", "2", "2",
                "--lambda", "1/10", *flags)
    else:
        argv = ("gen", "--construction", "nonrect", "--depth", "1", *flags, "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == ""
    errors = [ln for ln in got.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and named in errors[0]
    assert not out.exists()


def _fresh(*argv):
    """Run argv on a newly built parser, as a one-shot process would."""
    args = cli.build_parser.__wrapped__().parse_args(list(argv))
    return args.fn(args)


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_a_param_file_run_leaves_nothing_for_the_next_gen(tmp_path):
    out, ledger = tmp_path / "g.dhs", tmp_path / "g.ledger.txt"
    plain = ("gen", "--construction", "nonrect", "--depth", "1", "--out", str(out))
    assert _fresh(*plain) == 0
    alone = out.read_bytes(), ledger.read_bytes()
    pf = tmp_path / "p.cfg"
    pf.write_text("depth=2\nN=2\nN1_steps=2\nL_schedule=1,3/2\nd1p=3/4\nd2p=7/8\n")
    assert run(*plain[:-2], "--params", str(pf), *plain[-2:]) == 0
    assert (out.read_bytes(), ledger.read_bytes()) != alone
    assert run(*plain) == 0
    assert (out.read_bytes(), ledger.read_bytes()) == alone


def test_a_usage_error_leaves_the_parser_ready_for_a_count(tmp_path, capsys):
    spec, needle = tmp_path / "n.dhs", tmp_path / "n1.dpf"
    assert run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(spec)) == 0
    assert run("export", "--spec", str(spec), "--level", "1", "--id", "1", "--format", "dpf",
               "--out", str(needle)) == 0
    with pytest.raises(SystemExit) as exc:
        run("count", "--spec", str(spec), "--needle", str(needle), "--level", "x", "--id", "1")
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ("count", "--spec", str(spec), "--needle", str(needle), "--level", "2", "--id", "1")
    assert run(*argv) == 0
    reused = capsys.readouterr().out
    assert _fresh(*argv) == 0
    assert capsys.readouterr().out == reused


def test_help_matches_a_freshly_built_parser(capsys):
    import argparse

    def helps(ap):
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        return [ap.format_help(), *(p.format_help() for p in sub.choices.values())]

    assert run("constants", "--L", "1", "--eps", "1/2", "--P", "1") == 0
    capsys.readouterr()
    assert helps(cli.build_parser()) == helps(cli.build_parser.__wrapped__())


# ----------------------------------------------------------------------
# ledger values: _show against the str-based formula
# ----------------------------------------------------------------------

def _show_by_str(x, limit=48):
    """The formula ``_show`` had: convert, measure, convert the parts again."""
    s = str(x)
    if len(s) <= limit:
        return s
    return f"~{float(x):.12g} ({len(str(x.numerator))}/{len(str(x.denominator))} digits)"


def _with_digits(n):
    return st.integers(10 ** (n - 1) if n > 1 else 0, 10**n - 1)


@st.composite
def _ledger_values(draw):
    """Rationals of 1-3,000 digits a part, either sign, integral or not,
    the quotient inside the float range."""
    den = draw(st.one_of(st.just(1), st.integers(1, 3000).flatmap(_with_digits).filter(bool)))
    cap = min(3000, len(str(den)) + 300)
    num = draw(st.integers(1, cap).flatmap(_with_digits))
    return F(num if draw(st.booleans()) else -num, den)


@settings(max_examples=300, deadline=None)
@given(_ledger_values())
def test_show_equals_the_str_formula(x):
    assert cli._show(x) == _show_by_str(x)


@pytest.mark.parametrize("length", [1, 2, 4, 46, 47, 48, 49, 50])
def test_show_at_the_48_character_boundary(length):
    """Integral, negative and fractional values whose ``str`` is ``length``
    characters long (10^a - 1 is prime to 10^b)."""
    values = [F(10 ** (length - 1)), F(10**length - 1)]
    if length >= 2:
        values.append(F(-(10 ** (length - 2))))
    for sign in (1, -1)[: max(0, length - 3)]:  # str is [-]a digits, a slash and b + 1 digits
        a = (length - 2 - (sign < 0)) // 2
        values.append(F(sign * (10**a - 1), 10 ** (length - 2 - (sign < 0) - a)))
    for x in values:
        assert len(str(x)) == length, x
        assert cli._show(x) == _show_by_str(x), x


# ----------------------------------------------------------------------
# malformed loader input exits 2; repetitivity charges its code arrays to
# the cap
# ----------------------------------------------------------------------

_BAND_HEAD = "DHS 1\nlevel 1 patches 2\nPATCH 1 1 0 0\n1\nPATCH 1 1 0 0\n0\nlevel 2 patches 1\n"
# a multiplicity below 1, multiplicities or runs that do not add up, a
# child id outside 1..k, a missing or an extra field
_BAD_BANDS = {
    "multiplicity-zero": "band 0 pieces 1\n1 1 1 2 2\nband 3 pieces 1\n1 1 3",
    "multiplicities-short": "band 1 pieces 1\n1 1 1 2 2\nband 1 pieces 1\n1 1 3",
    "runs-short": "band 1 pieces 1\n1 1 1 2 1\nband 2 pieces 1\n1 1 3",
    "child-id-past-k": "band 1 pieces 1\n1 1 1 3 2\nband 2 pieces 1\n1 1 3",
    "run-missing-its-length": "band 1 pieces 1\n1 1 1 2\nband 2 pieces 1\n1 1 3",
    "extra-field": "band 1 pieces 1 1\n1 1 1 2 2\nband 2 pieces 1\n1 1 3",
}


@pytest.fixture(scope="module")
def loader_inputs(tmp_path_factory):
    """The inputs of the malformed-loader checks, in one directory."""
    d = tmp_path_factory.mktemp("loader")
    assert run("gen", "--construction", "nonrect", "--depth", "1", "--out", str(d / "n.dhs")) == 0
    (d / "ok.dpf").write_text("PATCH 2 2 0 0\n11\n10\n")
    (d / "unread.cfg").write_text("blocks=3\n")
    (d / "band.dhs").write_text(
        f"{_BAND_HEAD}arrangement 3 3 bands 2\nband 1 pieces 1\n1 1 1 2 2\nband 2 pieces 1\n1 1 3\n")
    for name, bad in _BAD_BANDS.items():
        (d / f"{name}.dhs").write_text(f"{_BAND_HEAD}arrangement 3 3 bands 2\n{bad}\n")
    return d


_COUNT = ("count", "--spec", "n.dhs", "--needle", "ok.dpf")
_LOADER_ERRORS = {
    "id-0-at-level-2": (*_COUNT, "--level", "2", "--id", "0"),
    "id-3-at-level-1": (*_COUNT, "--level", "1", "--id", "3"),
    "id-3-at-level-1-block-aligned": (*_COUNT, "--level", "1", "--id", "3", "--mode", "block_aligned"),
    "unread-param": ("gen", "--construction", "nonrect", "--depth", "1", "--params", "unread.cfg",
                     "--out", "u.dhs"),
    **{f"band-{name}": ("stats", "--spec", f"{name}.dhs") for name in _BAD_BANDS},
}


@pytest.mark.parametrize("argv", _LOADER_ERRORS.values(), ids=_LOADER_ERRORS.keys())
def test_malformed_loader_input_exits_2(loader_inputs, capsys, monkeypatch, argv):
    monkeypatch.chdir(loader_inputs)
    before = sorted(loader_inputs.iterdir())
    assert run(*argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: ") and got.err.count("\n") == 1
    assert sorted(loader_inputs.iterdir()) == before


def test_the_band_fixture_of_the_malformed_ones_loads(loader_inputs, capsys):
    """Rows 1 2 2 once and 1 1 1 twice: 7 of the 9 cells hold patch 1."""
    assert run("stats", "--spec", str(loader_inputs / "band.dhs")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2\t3\t1\t1\t7\t7/9"


def test_repetitivity_charges_its_code_arrays_to_the_cap(tmp_path, capsys, monkeypatch):
    """The level-5 window is 324^2 cells: it exports under a cap of 300000,
    but its 2-byte codes take 6 bytes a cell, so repetitivity exits 3."""
    spec = str(tmp_path / "ue3.dhs")
    assert run("gen", "--construction", "ue", "--depth", "3", "--mode", "toy", "--out", spec) == 0
    monkeypatch.setenv("DELONE_CELL_CAP", "300000")
    assert run("export", "--spec", spec, "--level", "5", "--id", "1", "--format", "pbm",
               "--out", str(tmp_path / "w.pbm")) == 0
    capsys.readouterr()
    assert run("repetitivity", "--spec", spec, "--level", "5", "--id", "1", "--r", "2") == 3
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("resource cap: ") and got.err.count("\n") == 1


# ----------------------------------------------------------------------
# strip-mined scans of a 972^2 window agree with the seam recursion
# ----------------------------------------------------------------------

def test_strip_mined_scans_of_a_972_window_agree_with_the_seam_recursion(ue3, monkeypatch):
    """Each base needle scanned in packed words, and with ``_INT_CELLS``
    raised so the window is one Python int, counts what the seam
    recursion counts."""
    spec = ue3.spec
    window = hierarchy.materialize(spec, 6, 1).cells
    assert window.shape == (972, 972) and window.size > 3 * patch._STRIP
    assert window.size > hierarchy._INT_CELLS  # scanned in packed words
    for needle in spec.base:
        got = hierarchy.scan_count(window, needle)
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "_INT_CELLS", 1 << 40)
            whole = hierarchy.scan_count(window, needle)
        assert got == whole == hierarchy.count_occurrences(spec, needle, 6, 1)


@pytest.fixture(scope="module")
def ue3_dhs(tmp_path_factory):
    spec = str(tmp_path_factory.mktemp("ue3") / "ue3.dhs")
    assert run("gen", "--construction", "ue", "--depth", "3", "--mode", "toy", "--out", spec) == 0
    return spec


def test_repetitivity_at_r_5_takes_the_sorted_pattern_list(ue3_dhs, capsys):
    """r = 5 codes are uint64: the command runs and prints one radius."""
    capsys.readouterr()
    assert run("repetitivity", "--spec", ue3_dhs, "--level", "5", "--id", "1", "--r", "5") == 0
    out, err = capsys.readouterr()
    assert err == "" and out.strip().isdecimal() and out.count("\n") == 1


# the window's charge, then its codes' (6 bytes a cell for r <= 4), each
# refused one cell short and met at its need
_REPETITIVITY_CAPS = {
    944783: (3, "", "resource cap: materializing level 6 patch 1 requires 944784 cells (cap 944783)\n"),
    944784: (3, "", "resource cap: 6-byte pattern codes of side 2 on a 972x972 window "
                    "requires 5668704 cells (cap 944784)\n"),
    5668703: (3, "", "resource cap: 6-byte pattern codes of side 2 on a 972x972 window "
                     "requires 5668704 cells (cap 5668703)\n"),
    5668704: (0, "13\n", ""),
}


@pytest.mark.parametrize("cap", _REPETITIVITY_CAPS)
def test_repetitivity_spec_caps_as_the_window_did(ue3_dhs, capsys, cap):
    """Read off the tile groups, ``repetitivity --spec`` is still charged
    the window and then its codes, with the messages the window gave."""
    capsys.readouterr()
    rc = run("repetitivity", "--spec", ue3_dhs, "--level", "6", "--id", "1", "--r", "2", "--cell-cap", str(cap))
    assert (rc, *capsys.readouterr()) == _REPETITIVITY_CAPS[cap]


# bad values, alone and together: the first error is the window's
_REPETITIVITY_ERRORS = {
    ("--level", "0"): "level 0 outside 1..7",
    ("--level", "8", "--id", "0", "--r", "0"): "level 8 outside 1..7",
    ("--id", "3"): "patch id 3 outside 1..2",
    ("--id", "0", "--r", "9"): "patch id 0 outside 1..2",
    ("--r", "0"): "pattern side must be positive",
    ("--r", "-1"): "pattern side must be positive",
    ("--level", "2", "--r", "5"): "patch side 12 below 3r = 15",
    ("--r", "9"): "pattern side above 8 is not supported",
}


@pytest.mark.parametrize("argv", _REPETITIVITY_ERRORS, ids=[" ".join(a) for a in _REPETITIVITY_ERRORS])
def test_repetitivity_spec_errors_as_the_window_did(ue3_dhs, capsys, argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    flags = {"--level": "6", "--id": "1", "--r": "1", **flags}
    capsys.readouterr()
    assert run("repetitivity", "--spec", ue3_dhs, *(x for kv in flags.items() for x in kv)) == 2
    assert capsys.readouterr() == ("", f"error: {_REPETITIVITY_ERRORS[argv]}\n")


@pytest.mark.parametrize("level", ["6", "7"])
def test_repetitivity_spec_never_builds_the_window(ue3_dhs, capsys, monkeypatch, level):
    """On the 972^2 and 2916^2 windows the tile groups give both radii: a
    fallback to the window would raise here."""
    def refuse(*args, **kwargs):
        raise AssertionError("the window was built")

    monkeypatch.setattr(hierarchy, "materialize", refuse)
    monkeypatch.setattr(hierarchy, "_cells", refuse)
    for r, want in (("1", "10\n"), ("2", "13\n")):
        capsys.readouterr()
        assert run("repetitivity", "--spec", ue3_dhs, "--level", level, "--id", "1", "--r", r) == 0
        assert capsys.readouterr() == (want, "")


def test_repetitivity_spec_peaks_below_the_window(ue3_dhs):
    """On the 2916^2 level-7 window, r = 1, the tile groups' traced peak is
    below the window path's (the window alone is 8.5 MB)."""
    spec = hierarchy.read_spec(ue3_dhs)
    peaks = []
    for call in (lambda: hierarchy.spec_repetitivity(spec, 7, 1, 1),
                 lambda: hierarchy.estimate_repetitivity(hierarchy.materialize(spec, 7, 1), 1)):
        tracemalloc.start()
        try:
            assert call() == 10
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 10 and peaks[1] > spec.cell_count(7)


@pytest.mark.parametrize("level", ["5", "6"])
def test_the_galloping_search_gives_the_bisection_radii(ue3_dhs, capsys, level):
    """The radii the bisection from side - r gave, for r = 1, 2 and 4."""
    got = []
    for r in ("1", "2", "4"):
        capsys.readouterr()
        assert run("repetitivity", "--spec", ue3_dhs, "--level", level, "--id", "1", "--r", r) == 0
        got.append(capsys.readouterr().out)
    assert got == ["10\n", "13\n", "99\n"]


# ----------------------------------------------------------------------
# exact values past 4,300 digits
# ----------------------------------------------------------------------

def _tower(n: str, levels: int) -> str:
    """A descriptor over a 1x1 base patch ``1``: each level an n x n
    arrangement of the one patch below, spelt as one band."""
    text = "DHS 1\nlevel 1 patches 1\nPATCH 1 1 0 0\n1\n"
    for t in range(2, levels + 1):
        text += f"level {t} patches 1\narrangement {n} {n} bands 1\nband {n} pieces 1\n1 1 {n}\n"
    return text


def _powers(zeros: int, coefficients) -> str:
    """The decimal digits of sum c_i 10^(zeros+1)i: the coefficients
    c_i of a power of 10^(zeros+1) + 1, from the top, each under 10."""
    return "1" + "".join("0" * zeros + str(c) for c in coefficients)


def test_a_band_tower_prints_its_exact_sides_and_counts(tmp_path, capsys):
    """N = 10^2200 + 1: level 3 is N^2 (4,401 digits) a side and holds
    N^4 (8,801 digits) points, printed whole; a 1x1 needle counts N^4."""
    n = _powers(2199, [1])
    (tmp_path / "t.dhs").write_text(_tower(n, 3))
    (tmp_path / "one.dpf").write_text("PATCH 1 1 0 0\n1\n")
    n2, n4 = _powers(2199, [2, 1]), _powers(2199, [4, 6, 4, 1])
    assert run("stats", "--spec", str(tmp_path / "t.dhs")) == 0
    assert capsys.readouterr() == (
        f"level\tside\tpatches\tid\tpoints\tdensity\n1\t1\t1\t1\t1\t1\n2\t{n}\t1\t1\t{n2}\t1\n3\t{n2}\t1\t1\t{n4}\t1\n",
        "")
    assert run("count", "--spec", str(tmp_path / "t.dhs"), "--needle", str(tmp_path / "one.dpf"),
               "--level", "3", "--id", "1") == 0
    assert capsys.readouterr() == (f"{n4}\n", "")


def test_a_field_past_4300_digits_loads(tmp_path, capsys):
    n = _powers(4399, [1])  # 10^4400 + 1
    (tmp_path / "t.dhs").write_text(_tower(n, 2))
    assert run("stats", "--spec", str(tmp_path / "t.dhs"), "--level", "2") == 0
    assert capsys.readouterr() == (f"level\tside\tpatches\tid\tpoints\tdensity\n2\t{n}\t1\t1\t{_powers(4399, [2, 1])}\t1\n",
                                   "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_a_field_past_the_digit_limit_is_named_outside_main(tmp_path, capsys):
    """Under the default limit a library load names the field's digits and
    the limit, where it said ``expected 'arrangement # # bands #'``; main
    still loads the descriptor."""
    text = _tower(_powers(4399, [1]), 2)  # a side of 4,401 digits
    (tmp_path / "t.dhs").write_text(text)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for load, arg in ((hierarchy.loads_spec, text), (hierarchy.read_spec, tmp_path / "t.dhs")):
            with pytest.raises(patch.PatchFormatError) as exc:
                load(arg)
            assert str(exc.value) == ("a field of 4401 digits in 'arrangement # # bands #' is past this process's "
                                      "int/str digit limit of 4300 (sys.get_int_max_str_digits())")
        assert run("stats", "--spec", str(tmp_path / "t.dhs"), "--level", "2") == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[-1].startswith("2\t1" + "0" * 4399 + "1\t")
    finally:
        sys.set_int_max_str_digits(before)


def test_stats_of_a_rigorous_ue_depth_3_build_prints_every_level(tmp_path, capsys):
    """65 levels whose top popcount has 4,301 digits: a header and 130 rows."""
    spec = str(tmp_path / "u.dhs")
    assert run("gen", "--construction", "ue", "--depth", "3", "--n1-steps", "1,2", "--mode", "rigorous",
               "--out", spec) == 0
    capsys.readouterr()
    assert run("stats", "--spec", spec) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert err == "" and len(rows) == 131 and rows[-1].startswith("65\t")
    assert len(rows[-1].split("\t")[4]) == 4301


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("argv", [["stats", "--spec", "t.dhs"], ["stats", "--spec", "missing.dhs"],
                                  ["stats", "--level", "x"]], ids=["ok", "error", "usage"])
def test_the_callers_digit_limit_is_back_after_main(tmp_path, capsys, monkeypatch, argv):
    """The limit is lifted only while a command runs, also when it exits 2
    or argparse exits: a program that calls main keeps its own guard."""
    (tmp_path / "t.dhs").write_text(_tower(_powers(4399, [1]), 2))
    monkeypatch.chdir(tmp_path)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            run(*argv)
        except SystemExit:
            pass
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
