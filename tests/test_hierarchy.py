import dataclasses
import itertools
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delone import cli
from delone import hierarchy as H
from delone import choquet, maps, nonrect, ue
from delone.hierarchy import (
    BLOCK_ALIGNED,
    SLIDING,
    Arrangement,
    CapacityError,
    HierarchySpec,
    Level,
)
from delone.patch import Patch, PatchFormatError, dumps_patch, dumps_pbm, from_rows
from tests_oracles import repetitivity_oracle


def toy_spec(ell=1, m=1, p_star=1, n_blocks=1):
    q1, q2 = nonrect.starting_patches()
    return nonrect.build_new_patches(
        q1, q2, nonrect.BuildParams(m=m, P_star=p_star, N=n_blocks, ell=ell)
    )


# ----------------------------------------------------------------------
# arrangements: closed forms against dense recomputation
# ----------------------------------------------------------------------

def _naive_tally(*parts: np.ndarray) -> Counter:
    return Counter(zip(*(p.ravel().tolist() for p in parts)))


@pytest.mark.parametrize("s,b", [(1, 3), (2, 3), (1, 5), (3, 5), (2, 7)])
def test_altbottom_matches_dense(s, b):
    _check_altbottom_against_dense(s, b, (1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5).map(lambda i: 2 * i + 1),
    st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True),
)
def test_altbottom_matches_dense_random(s, b, ids):
    _check_altbottom_against_dense(s, b, ids)


def _check_altbottom_against_dense(s, b, ids):
    """Closed-form tallies and edges against the dense grid, recounted."""
    alt = Arrangement.altbottom(s, b, main_id=ids[0], alt_id=ids[1])
    g = alt.to_grid()
    dense = Arrangement.dense(g)
    assert alt.counts(4) == dense.counts(4)
    assert alt._tables()[0] == dense._tables()[0] == _naive_tally(g[:, :-1], g[:, 1:])
    assert alt._tables()[1] == dense._tables()[1] == _naive_tally(g[:-1], g[1:])
    quads = _naive_tally(g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:])
    assert alt._tables()[2] == dense._tables()[2] == quads
    lines = {"left": g[:, 0], "right": g[:, -1], "bottom": g[0], "top": g[-1]}
    for side, line in lines.items():
        steps = _naive_tally(line[:-1], line[1:])
        for edge in (alt.edge(side), dense.edge(side)):
            assert edge.length == len(line)
            assert edge.tally() == Counter(line.tolist())
            assert edge.steps() == steps
    for row in range(alt.rows):
        for col in range(alt.cols):
            assert alt.id_at(col, row) == dense.id_at(col, row)


# id ranges of the dense-table property: small ids; a wide range of
# negative and positive ids (np.unique keys offset by the lowest id); a
# radix past 2**15.5, whose keys would overflow int64 (Counter)
ID_RANGES = {"small": (1, 3), "wide": (-500, 500), "overflow": (0, 2**16)}


@pytest.mark.parametrize("lo,hi", ID_RANGES.values(), ids=ID_RANGES.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_tables_match_naive(lo, hi, data):
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    ids = data.draw(st.lists(st.integers(lo, hi), min_size=rows * cols, max_size=rows * cols))
    g = np.array(ids, dtype=np.int64).reshape(rows, cols)
    g.flat[0], g.flat[-1] = lo, hi  # a grid of two or more cells spans the whole range
    dense = Arrangement.dense(g)
    assert dense._tables()[0] == _naive_tally(g[:, :-1], g[:, 1:])
    assert dense._tables()[1] == _naive_tally(g[:-1], g[1:])
    assert dense._tables()[2] == _naive_tally(g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:])
    for side, line in {"left": g[:, 0], "right": g[:, -1], "bottom": g[0], "top": g[-1]}.items():
        edge = dense.edge(side)
        assert edge.length == len(line)
        assert edge.tally() == Counter(line.tolist())
        assert edge.steps() == _naive_tally(line[:-1], line[1:])


def _runs(draw, length: int, ids) -> tuple:
    """``length`` cells cut into 1..5 runs of random ids."""
    cuts = draw(st.lists(st.integers(1, length - 1), max_size=min(4, length - 1), unique=True)) if length > 1 else []
    bounds = [0, *sorted(cuts), length]
    return tuple((draw(ids), b - a) for a, b in zip(bounds, bounds[1:]))


def _band_row(draw, cols: int, ids, min_reps: int = 1) -> H.Edge:
    """A row of ``cols`` cells: a period of 1..5 runs repeated min_reps..3
    times, then a tail of 0..5 runs."""
    period = draw(st.integers(1, cols // min_reps))
    reps = draw(st.integers(min_reps, min(3, cols // period)))
    pieces = [(_runs(draw, period, ids), reps)]
    if cols > period * reps:
        pieces.append((_runs(draw, cols - period * reps, ids), 1))
    return H.Edge(tuple(pieces))


def test_each_grid_is_built_once_and_kept_read_only(ue3):
    """Repeated materializations build the grid of each distinct
    arrangement object once: ``_ids`` writes out each of its bands once."""
    spec = H.loads_spec(H.dumps_spec(ue3.spec))  # fresh objects, no grid built yet
    arrs = {id(a): a for lv in spec.levels[:4] for a in lv.arrangements}
    ids, written = H._ids, []

    def counted(line):
        written.append(line)
        return ids(line)

    with mock.patch.object(H, "_ids", counted):
        for _ in range(3):
            for pid in (1, 2):
                H.materialize(spec, 5, pid)
    assert len(arrs) == 4 and len(written) == sum(len(a.bands) for a in arrs.values())
    for a in arrs.values():
        assert a.to_grid() is a.to_grid() and not a.to_grid().flags.writeable


@st.composite
def band_arrangements(draw):
    """1..5 bands of multiplicity 1..4 over rows of a common length, each
    row a :func:`_band_row`."""
    ids = st.integers(1, 4)
    cols = draw(st.integers(1, 12))
    return H.Arrangement(tuple((_band_row(draw, cols, ids), draw(st.integers(1, 4)))
                               for _ in range(draw(st.integers(1, 5)))))


@settings(max_examples=300, deadline=None)
@given(band_arrangements())
def test_band_tables_match_naive(arr):
    rows = [[v for runs, k in row.pieces for _ in range(k) for v, n in runs for _ in range(n)]
            for row, m in arr.bands for _ in range(m)]
    g = np.array(rows)
    assert np.array_equal(arr.to_grid(), g)
    assert arr.counts(4) == [int((g == i).sum()) for i in range(1, 5)]
    assert arr._tables()[0] == _naive_tally(g[:, :-1], g[:, 1:])
    assert arr._tables()[1] == _naive_tally(g[:-1], g[1:])
    assert arr._tables()[2] == _naive_tally(g[:-1, :-1], g[:-1, 1:], g[1:, :-1], g[1:, 1:])
    for side, line in {"left": g[:, 0], "right": g[:, -1], "bottom": g[0], "top": g[-1]}.items():
        edge = arr.edge(side)
        assert edge.length == len(line)
        assert edge.tally() == Counter(line.tolist())
        assert edge.steps() == _naive_tally(line[:-1], line[1:])
    assert [[arr.id_at(c, r) for c in range(arr.cols)] for r in range(arr.rows)] == rows


def _kept(grid: np.ndarray) -> tuple[int, Arrangement]:
    """Bytes still allocated after building an arrangement from ``grid``
    and its seam tables, and the arrangement."""
    tracemalloc.start()
    try:
        arr = Arrangement.dense(grid)
        arr.edge("left")
        arr._tables()
        return tracemalloc.get_traced_memory()[0], arr
    finally:
        tracemalloc.stop()


def test_kept_seam_tables_grow_with_distinct_quads_not_cells():
    # 512x512 cells in 64x64 blocks of four ids: 8 bands of 8 runs and 16
    # distinct quads, against 256 KiB of one-byte cells
    i = np.arange(512) // 64 % 2
    kept, blocks = _kept(1 + i[:, None] + 2 * i[None, :])
    assert len(blocks.bands) == 8 and len(blocks._tables()[2]) == 16
    assert kept < 64 * 1024
    # an id-diverse grid keeps one entry per stored run and per distinct quad
    kept, diverse = _kept(np.random.default_rng(3).integers(1, 65, size=(256, 256)))
    runs = sum(len(runs) for row, _ in diverse.bands for runs, _ in row.pieces)
    quads = len(diverse._tables()[2])
    assert quads > 60_000
    assert kept < 200 * (runs + quads)


def test_seam_tables_are_built_once_per_spec(ue3):
    spec = H.loads_spec(H.dumps_spec(ue3.spec))  # fresh arrangements, no tables built yet
    arrs = [a for lv in spec.levels for a in lv.arrangements]

    def kept() -> list:
        """Per arrangement, its edges and its seam tables, None if not built."""
        return [(vars(a).get("_edges"), a._kept) for a in arrs]

    def seams() -> dict:
        """Every kept seam of a pair of arrangements, by (arrangement, kind, partner)."""
        return {(id(a), *key): seam for a in arrs for key, seam in a._seams.items()}

    assert kept() == [(None, None)] * len(arrs) and seams() == {}
    top, (n1, n2) = spec.num_levels, spec.base[:2]
    first = H.count_occurrences(spec, n1, top, 1, SLIDING)
    built, paired = kept(), seams()
    assert any(edges is not None for edges, _ in built) and any(tables is not None for _, tables in built)
    assert {kind for _, kind, _ in paired} == {"V", "H"}
    second = H.count_occurrences(spec, n2, top, 1, SLIDING)
    # the second count reads the very objects the first one built, and builds no others
    assert all(x is y for now, then in zip(kept(), built) for x, y in zip(now, then))
    assert seams().keys() == paired.keys() and all(seams()[key] is seam for key, seam in paired.items())
    assert [first, second] == [H.count_occurrences(ue3.spec, n, top, 1, SLIDING) for n in (n1, n2)]


def test_band_validation():
    row, short = H.Edge(((((1, 2),), 1),)), H.Edge(((((1, 1),), 1),))
    for bands in ((), ((row, 0),), ((row, 1), (short, 1)), ((H.Edge(()), 1),)):
        with pytest.raises(H.SpecError):
            H.Arrangement(bands)
    head = "DHS 1\nlevel 1 patches 1\nPATCH 1 1 0 0\n1\nlevel 2 patches 1\narrangement 1 1 bands 1\n"
    with pytest.raises(PatchFormatError, match="rows of one length of at least 1"):
        H.loads_spec(head + "band 1 pieces 0\n")


def test_level_arrangements_share_one_square_shape():
    square = Arrangement.dense(np.ones((2, 2), dtype=np.int64))
    with pytest.raises(H.SpecError, match="share dimensions"):
        Level([square, Arrangement.dense(np.ones((3, 3), dtype=np.int64))])
    with pytest.raises(H.SpecError, match="square"):
        Level([Arrangement.dense(np.ones((2, 3), dtype=np.int64))] * 2)


def test_altbottom_validation():
    with pytest.raises(H.SpecError):
        Arrangement.altbottom(1, 4, 1, 2)  # even block count
    with pytest.raises(H.SpecError):
        Arrangement.altbottom(1, 3, 1, 1)  # ids equal


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------

def test_materialize_level1_is_base():
    spec = toy_spec()
    assert H.materialize(spec, 1, 1).same_content(spec.base[0])
    assert H.materialize(spec, 1, 2).same_content(spec.base[1])


def test_one_step_side_and_point_count():
    spec = toy_spec()
    p = H.materialize(spec, 2, 1)
    assert p.width == p.height == 12  # 2 * m * P* * M * (2N+1)
    # 8 sparse corners (10 points) + 1 dense corner (16 points)
    assert p.popcount() == 8 * 10 + 1 * 16
    assert spec.count_matrix(1, 2) == [[8, 1], [1, 8]]


def test_materialize_cap_error_names_cells():
    spec = toy_spec(ell=6)
    with pytest.raises(CapacityError, match="8503056 cells"):
        H.materialize(spec, 7, 1, cap=10**6)


def test_materialize_peak_is_one_byte_a_cell(choq_big):
    """The output is the only full-size array: rows of tiles are written
    into it in place, not gathered and then transposed into a copy."""
    spec = choq_big.spec
    tracemalloc.start()
    try:
        cells = H.materialize(spec, 3, 1).cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.size == spec.cell_count(3) == 4096**2
    assert peak < 1.1 * cells.size


def test_windows_peak_at_a_few_times_their_charge(tmp_path):
    """Ten random 64x64 base patches under two levels of ten random 2x2
    arrangements: a level-3 patch is built from one stack of the ten
    level-2 patches, the level below it dropped, so ``materialize`` peaks
    below 5 times its charge and ``write_window`` (with its text buffer)
    below 6 times.  A refused call allocates nothing of the window."""
    rng = np.random.default_rng(0)
    base = [Patch(rng.integers(0, 2, (64, 64), dtype=np.uint8)) for _ in range(10)]
    levels = [Level(tuple(Arrangement.dense(rng.integers(1, 11, (2, 2))) for _ in range(10))) for _ in range(2)]
    spec = HierarchySpec(base, levels)
    charge = spec.cell_count(3)
    calls = {
        "materialize": (5, lambda cap: H.materialize(spec, 3, 1, cap=cap)),
        "write_window": (6, lambda cap: H.write_window(tmp_path / "w.pbm", spec, 3, 1, "pbm", cap=cap)),
    }
    for name, (factor, call) in calls.items():
        call(charge)
        for cap, bound in ((charge - 1, charge / 8), (charge, factor * charge)):
            tracemalloc.start()
            try:
                try:
                    call(cap)
                except CapacityError:
                    assert cap < charge
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, cap, peak / charge)


def test_block_aligned_count_holds_one_patch_at_a_time():
    """The spec of the test above, a level-2 needle and a cap equal to its
    charge: each level-2 patch is compared in rows of tiles off the stack
    of the ten base patches, not off a stack of all ten level-2 patches
    (13.2 times the charge), so the count peaks below 5 times the charge."""
    rng = np.random.default_rng(0)
    base = [Patch(rng.integers(0, 2, (64, 64), dtype=np.uint8)) for _ in range(10)]
    levels = [Level(tuple(Arrangement.dense(rng.integers(1, 11, (2, 2))) for _ in range(10))) for _ in range(2)]
    spec = HierarchySpec(base, levels)
    charge, needle = spec.cell_count(2), H.materialize(spec, 2, 7)
    want = sum(spec.count_matrix(2, 3)[i - 1][0] for i in range(1, 11)
               if np.array_equal(H.materialize(spec, 2, i).cells, needle.cells))
    with pytest.raises(CapacityError, match=f"requires {charge} cells"):
        H.count_occurrences(spec, needle, 3, 1, BLOCK_ALIGNED, cap=charge - 1)
    tracemalloc.start()
    try:
        got = H.count_occurrences(spec, needle, 3, 1, BLOCK_ALIGNED, cap=charge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want >= 1
    assert peak < 5 * charge, peak / charge


@pytest.mark.parametrize("r", [2, 6])
def test_repetitivity_peak_is_under_its_charge(ue3, r):
    """The cap charges 3 * itemsize bytes a window cell (uint16 codes for
    r <= 4, uint64 above), and the traced peak stays under that charge."""
    window = H.materialize(ue3.spec, 6, 1)
    charge = 3 * np.dtype(H._code_dtype(r)).itemsize * window.side**2
    with pytest.raises(CapacityError, match=f"requires {charge} cells"):
        H.estimate_repetitivity(window, r, cap=charge - 1)
    # numpy imports numpy.ma (about 1 MB) on its first np.unique call
    H.estimate_repetitivity(window.subpatch(0, 0, 3 * r, 3 * r), r)
    tracemalloc.start()
    try:
        H.estimate_repetitivity(window, r, cap=charge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window.side == 972
    assert peak < charge


@pytest.mark.parametrize("name,level", [("ue3", 5), ("nonrect3", 4)])
def test_pattern_list_is_the_sorted_distinct_codes(name, level, request):
    """The presence table lists the same codes as ``np.unique``, ascending,
    so the bisection visits the patterns in the same order."""
    spec = request.getfixturevalue(name).spec
    cells = H.materialize(spec, level, 1).cells
    for r in (1, 2, 3, 4):
        codes = H._pattern_codes(cells, r)
        got, want = H._distinct_codes(codes, r), np.unique(codes)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
# the cell cap: one check on every path that allocates cells
# ----------------------------------------------------------------------

CAP_PATHS = ["materialize", "direct scan", "seam strip", "horizontal seam strip", "junction block",
             "periodic line", "block-aligned count", "cli export", "repetitivity", "cli repetitivity"]

# two 2x2 base patches under one 4x4 arrangement whose bands are the rows
# (2 1)x2, twice, under (1 2)x2, twice, and 2x2 of that patch on top
PERIODIC_ROWS = ("DHS 1\nlevel 1 patches 2\nPATCH 2 2 0 0\n00\n00\nPATCH 2 2 0 0\n10\n01\n"
                 "level 2 patches 1\narrangement 4 4 bands 2\n"
                 "band 2 pieces 1\n2 2 1 1 1\nband 2 pieces 1\n2 1 1 2 1\n"
                 "level 3 patches 1\narrangement 2 2\n1 1\n1 1\n")


@pytest.mark.parametrize("path", CAP_PATHS)
def test_cell_cap_on_every_path(path, tmp_path, capsys, monkeypatch):
    """With the default lowered, a per-call cap at the need passes, one
    below it is refused with the need named (exit 3 from the CLI), and no
    per-call cap means the lowered default."""
    spec = toy_spec(ell=2)  # sides 4, 12, 36
    top = H.materialize(spec, 3, 1).cells
    H.write_spec(tmp_path / "t.dhs", spec)
    monkeypatch.setenv("DELONE_CELL_CAP", "1")

    def command(*argv):
        def call(cap):
            flag = [] if cap is None else ["--cell-cap", str(cap)]
            rc = cli.main([*argv, "--spec", str(tmp_path / "t.dhs"), "--level", "3", *flag])
            if rc == 3:
                raise CapacityError(capsys.readouterr().err)
            assert rc == 0
        return call

    need, run = {
        "materialize": (36 * 36, lambda cap: H.materialize(spec, 3, 1, cap=cap)),
        # a 5x5 needle does not fit the 4x4 children: level 2 is scanned whole
        "direct scan": (12 * 12, lambda cap: H.count_occurrences(
            spec, Patch(top[:5, :5]), 2, 1, SLIDING, cap=cap)),
        # an 8-wide, 2-high needle at level 3: level-2 scans of 144 cells,
        # vertical seam strips of 2 * 7 * 12 cells, and smaller horizontal
        # strips (2 * 1 * 12) and junction blocks (2 * 1 * 2 * 7)
        "seam strip": (2 * 7 * 12, lambda cap: H.count_occurrences(
            spec, Patch(top[:2, :8]), 3, 1, SLIDING, cap=cap)),
        # the same needle turned: horizontal seam strips of 12 * 2 * 7 cells,
        # cut in true orientation, and smaller vertical strips and junctions
        "horizontal seam strip": (2 * 7 * 12, lambda cap: H.count_occurrences(
            spec, Patch(top[:8, :2]), 3, 1, SLIDING, cap=cap)),
        # an 8x8 needle at level 3: the seam strips of 168 cells, then the
        # four 7x7 tiles of each level-2 junction
        "junction block": (4 * 7 * 7, lambda cap: H.count_occurrences(
            spec, Patch(top[:8, :8]), 3, 1, SLIDING, cap=cap)),
        # a 1x2 needle at level 3: the level-2 seam tables, then the seam of
        # the level-2 patch over itself, pair the two periodic rows, written
        # out in 4 cells (as many as the strips); each call loads the spec
        # afresh, as tables once built are kept
        "periodic line": (4, lambda cap: H.count_occurrences(
            H.loads_spec(PERIODIC_ROWS), Patch(np.array([[1], [0]], np.uint8)), 3, 1, SLIDING, cap=cap)),
        "block-aligned count": (12 * 12, lambda cap: H.count_occurrences(
            spec, Patch(top[:12, :12]), 3, 1, BLOCK_ALIGNED, cap=cap)),
        "cli export": (36 * 36, command("export", "--format", "dpf", "--out", str(tmp_path / "o"))),
        # 2-byte codes: three of them a window cell
        "repetitivity": (6 * 36 * 36, lambda cap: H.estimate_repetitivity(Patch(top), 2, cap=cap)),
        # the window passes its own check, then its codes are refused
        "cli repetitivity": (6 * 36 * 36, command("repetitivity", "--r", "2")),
    }[path]
    run(need)
    with pytest.raises(CapacityError, match=rf"requires {need} cells \(cap {need - 1}\)") as refused:
        run(need - 1)
    # a sliding count allocates both kinds: the refused one is named
    assert path not in ("seam strip", "horizontal seam strip", "junction block", "periodic line") or (
        path in str(refused.value))
    with pytest.raises(CapacityError, match=r"cells \(cap 1\)"):
        run(None)


def test_default_cap_is_read_at_call_time(monkeypatch):
    """Paths with no cap argument read DELONE_CELL_CAP when they run."""
    spec = toy_spec(ell=2)
    grid = H.materialize(spec, 2, 1).cells
    base = spec.base[0]
    paths = [
        (16, lambda: H.aligned_block_counts(grid, spec, 1)),
        (144, lambda: H.materialize(spec, 2, 1)),
        ((2 * base.height - 1) * (2 * base.width - 1) * base.popcount(),
         lambda: maps.delone_params_of(base)),
    ]
    for need, run in paths:
        monkeypatch.setenv("DELONE_CELL_CAP", str(need))
        run()
        monkeypatch.setenv("DELONE_CELL_CAP", str(need - 1))
        with pytest.raises(CapacityError, match=f"requires {need} cells"):
            run()


@pytest.mark.parametrize("env,cap", [("abc", None), ("0", None), ("-3", None), ("", None),
                                     ("1.5", None), (None, 0), (None, -5)])
def test_cell_cap_must_be_a_positive_integer(monkeypatch, env, cap):
    if env is not None:
        monkeypatch.setenv("DELONE_CELL_CAP", env)
    with pytest.raises(ValueError, match="must be a positive integer"):
        H.materialize(toy_spec(), 1, 1, cap=cap)


def test_materialize_region_matches_slices():
    spec = toy_spec(ell=2)
    full = H.materialize(spec, 3, 1).cells
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = int(rng.integers(1, 30))
        h = int(rng.integers(1, 30))
        x = int(rng.integers(0, full.shape[1] - w + 1))
        y = int(rng.integers(0, full.shape[0] - h + 1))
        region = H.materialize_region(spec, 3, 1, x, y, w, h)
        assert np.array_equal(region, full[y : y + h, x : x + w])


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("w,h", [(0, 1), (1, 0), (0, 0)])
def test_an_empty_region_is_refused(level, w, h):
    with pytest.raises(H.SpecError, match="region exceeds the patch support"):
        H.materialize_region(toy_spec(), level, 1, 0, 0, w, h)


# ----------------------------------------------------------------------
# occurrence counting
# ----------------------------------------------------------------------

def _naive_sliding(grid: np.ndarray, needle: Patch) -> int:
    gh, gw = grid.shape
    h, w = needle.cells.shape
    cnt = 0
    for y in range(gh - h + 1):
        for x in range(gw - w + 1):
            if np.array_equal(grid[y : y + h, x : x + w], needle.cells):
                cnt += 1
    return cnt


def _fill(draw, rows, cols):
    """Random bits, or all zeros, or all ones."""
    kind = draw(st.sampled_from(["bits", "zeros", "ones"]))
    if kind == "bits":
        return _bits(draw, rows, cols)
    return np.full((rows, cols), kind == "ones", dtype=np.uint8)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scan_count_property(data):
    draw = data.draw
    gh, gw = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    grid = _fill(draw, gh, gw)
    h, w = draw(st.integers(1, gh)), draw(st.integers(1, gw))
    if draw(st.booleans()):
        y, x = draw(st.integers(0, gh - h)), draw(st.integers(0, gw - w))
        needle = Patch(grid[y : y + h, x : x + w])
    else:
        needle = Patch(_fill(draw, h, w))
    assert H.scan_count(grid, needle) == _naive_sliding(grid, needle)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scan_count_across_strips(data):
    """With strips a few bytes long every grid spans many strips, and the
    needles (h >= 2) straddle each strip edge.  These grids are small
    enough for the one-int path, so the word path, the one that strips,
    is forced."""
    draw = data.draw
    gh, gw = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    grid = _fill(draw, gh, gw)
    h, w = draw(st.integers(2, min(4, gh))), draw(st.integers(1, min(4, gw)))
    if draw(st.booleans()):
        y, x = draw(st.integers(0, gh - h)), draw(st.integers(0, gw - w))
        needle = Patch(grid[y : y + h, x : x + w])
    else:
        needle = Patch(_fill(draw, h, w))
    with mock.patch.object(H, "_INT_CELLS", 0), mock.patch("delone.patch._STRIP", draw(st.integers(1, 64))):
        assert H.scan_count(grid, needle) == _naive_sliding(grid, needle)


def test_scan_count_wide_needles():
    """Needles 64 or more wide shift by whole words as well as bits."""
    rng = np.random.default_rng(5)
    grid = (rng.random((4, 300)) < 0.95).astype(np.uint8)
    for w in (63, 64, 65, 100, 128, 129, 200):
        for x in (0, 37, 300 - w):
            needle = Patch(grid[1:3, x : x + w])
            want = _naive_sliding(grid, needle)
            for cells in (0, 2**40):
                with mock.patch.object(H, "_INT_CELLS", cells):
                    assert H.scan_count(grid, needle) == want, (w, x, cells)


# grid widths at and next to the ends of 64-bit words
WORD_EDGES = [1, 2, 63, 64, 65, 127, 128, 129]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scan_count_on_both_paths(data):
    """The one-int path (``_INT_CELLS`` patched to 2^40) and the word path
    (patched to 0, with strips of one to a few rows) both equal the naive
    loops: on widths around word ends, with needles up to 8 wide, so every
    bit shift of the word path carries, and all-empty and all-full needles."""
    draw = data.draw
    gw = draw(st.sampled_from(WORD_EDGES) | st.integers(1, 140))
    gh = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = (rng.random((gh, gw)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))).astype(np.uint8)
    h, w = draw(st.integers(1, min(4, gh))), draw(st.integers(1, min(8, gw)))
    kind = draw(st.sampled_from(["cut", "bits", "empty", "full"]))
    if kind == "cut":
        y, x = draw(st.integers(0, gh - h)), draw(st.integers(0, gw - w))
        needle = Patch(grid[y : y + h, x : x + w])
    else:
        needle = Patch(_fill(draw, h, w) if kind == "bits" else np.full((h, w), kind == "full", dtype=np.uint8))
    want = _naive_sliding(grid, needle)
    strip = draw(st.integers(1, 100))
    for cells in (0, 2**40):
        with mock.patch.object(H, "_INT_CELLS", cells), mock.patch("delone.patch._STRIP", strip):
            assert H.scan_count(grid, needle) == want, cells


def test_scan_count_matches_naive_loops():
    rng = np.random.default_rng(3)
    for _ in range(10):
        grid = rng.integers(0, 2, size=(14, 17)).astype(np.uint8)
        needle = Patch(rng.integers(0, 2, size=(3, 2)).astype(np.uint8))
        assert H.scan_count(grid, needle) == _naive_sliding(grid, needle)


def test_sliding_counts_equal_scans_on_toys(nonrect3):
    spec = nonrect3.spec
    needles = [spec.base[0], spec.base[1], Patch(spec.base[0].cells[:3, :3])]
    for level in range(1, spec.num_levels + 1):
        for pid in (1, 2):
            grid = H.materialize(spec, level, pid).cells
            for needle in needles:
                want = H.scan_count(grid, needle)
                got = H.count_occurrences(spec, needle, level, pid, SLIDING)
                assert got == want, (level, pid, needle.cells.shape)


def test_block_counts_equal_aligned_scans(nonrect3):
    spec = nonrect3.spec
    for level in range(2, spec.num_levels + 1):
        for pid in (1, 2):
            grid = H.materialize(spec, level, pid).cells
            for m in range(1, level):
                if spec.side(level) // spec.side(m) > 64:
                    continue
                want = H.aligned_block_counts(grid, spec, m)
                got = [
                    H.count_occurrences(
                        spec, H.materialize(spec, m, i), level, pid, BLOCK_ALIGNED
                    )
                    for i in (1, 2)
                ]
                assert got == want


def test_whole_patch_slides_once():
    spec = toy_spec()
    top = H.materialize(spec, 2, 1)
    assert H.count_occurrences(spec, top, 2, 1, SLIDING) == 1


def test_block_count_of_unknown_needle_is_zero():
    spec = toy_spec()
    stranger = from_rows(["1111", "1111", "1111", "1010"])
    assert H.count_occurrences(spec, stranger, 2, 1, BLOCK_ALIGNED) == 0


@pytest.mark.parametrize("mode", [SLIDING, BLOCK_ALIGNED])
@pytest.mark.parametrize("level,pid", [(2, 0), (2, -1), (2, 3), (1, 3)])
def test_count_rejects_a_patch_id_outside_the_level(mode, level, pid):
    spec = toy_spec()
    with pytest.raises(H.SpecError, match=rf"^patch id {pid} outside 1\.\.2$"):
        H.count_occurrences(spec, spec.base[0], level, pid, mode)
    with pytest.raises(H.SpecError, match=rf"^patch id {pid} outside 1\.\.2$"):
        spec.density(level, pid)


def test_needle_larger_than_target_rejected():
    spec = toy_spec()
    big = Patch(np.ones((13, 13), dtype=np.uint8))
    with pytest.raises(H.SpecError, match="larger"):
        H.count_occurrences(spec, big, 2, 1, SLIDING)


def test_wide_needle_uses_direct_scan():
    spec = toy_spec(ell=2)  # sides 4, 12, 36
    needle = Patch(H.materialize(spec, 2, 2).cells[:6, :9])  # wider than side 4
    grid = H.materialize(spec, 3, 1).cells
    assert H.count_occurrences(spec, needle, 3, 1, SLIDING) == H.scan_count(grid, needle)


def test_frequency_matrix_composition(ue3):
    spec = ue3.spec
    a = H.block_frequency_matrix(spec, 1, 3)
    b = H.block_frequency_matrix(spec, 3, 5)
    c = H.block_frequency_matrix(spec, 1, 5)
    prod = [
        [sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == c
    for j in range(2):
        assert sum(c[i][j] for i in range(2)) == 1


# ----------------------------------------------------------------------
# scheme validation
# ----------------------------------------------------------------------

def test_validate_passes_on_toy(nonrect3):
    rep = H.validate_scheme(nonrect3.spec)
    assert rep.ok, rep.failed()


def test_validate_flags_missing_child():
    base = [from_rows(["11", "11"]), from_rows(["11", "10"])]
    only_ones = Arrangement.dense(np.ones((2, 2), dtype=np.int64))
    both = Arrangement.dense(np.array([[1, 2], [1, 1]]))
    spec = HierarchySpec(base, [Level([only_ones, both])])
    rep = H.validate_scheme(spec)
    bad = {r.name: r for r in rep.failed()}
    assert "all_children_used" in bad
    assert "patch 1 never uses child 2" in bad["all_children_used"].witness


def test_validate_flags_anchor_mismatch():
    base = [from_rows(["11", "11"]), from_rows(["11", "10"])]
    arr1 = Arrangement.dense(np.array([[2, 1], [1, 1]]))  # bottom-left holds id 2
    spec = HierarchySpec(base, [Level([arr1, arr1], anchor=(0, 0))], anchored=True)
    rep = H.validate_scheme(spec)
    bad = {r.name for r in rep.failed()}
    assert "anchor_chain" in bad


def _scheme(name):
    """A spec that fails one ``validate_scheme`` row; ``name`` says how."""
    base = [from_rows(["11", "11"]), from_rows(["11", "10"])]
    mixed = Arrangement.dense(np.array([[1, 2], [1, 1]]))
    if name == "base origin":
        return HierarchySpec([Patch(base[0].cells, (1, 1))])
    if name == "1x1 arrangements":
        return HierarchySpec(base, [Level([Arrangement.dense(np.array([[1]]))] * 2)])
    if name == "unused child":
        return HierarchySpec(base, [Level([Arrangement.dense(np.ones((2, 2), dtype=np.int64)), mixed])])
    assert name == "anchor id"
    bottom_left_2 = Arrangement.dense(np.array([[2, 1], [1, 1]]))
    return HierarchySpec(base, [Level([bottom_left_2] * 2, anchor=(0, 0))], anchored=True)


def _choquet_seq(mode, name):
    """A two-level sequence in ``mode`` that breaks one ``validate_choquet_seq``
    row; entries of A_1 move within a column, so its sum stays put."""
    seq = choquet.make_choquet_seq(2, 2, mode=mode, ratio_cap=8)
    a = [row[:] for row in seq.A[0]]
    seq = dataclasses.replace(seq, A=[a])

    def move(src, dst, col, value):
        a[dst][col] += a[src][col] - value
        a[src][col] = value

    if name == "p1":
        return dataclasses.replace(seq, p=(5,) + seq.p[1:])
    if name == "k":
        return dataclasses.replace(seq, k=(2,) + seq.k[1:])
    if name == "first row":
        move(0, 1, 1, 2)
    elif name == "column sum":
        a[2][0] += 1
    elif name == "floor patches":
        move(1, 2, 2, 1)
    elif name == "floor scale":
        move(1, 2, 2, 3)
    elif name == "stripe ratio":
        return dataclasses.replace(seq, r=(seq.p[1] // seq.p[0],) + seq.r[1:])
    else:
        assert name == "headroom"
        return dataclasses.replace(seq, r=(seq.p[1] // seq.p[0] - 1,) + seq.r[1:])
    return seq


TOY = " (toy: reported only)"
WITNESSES = [
    # (validator input, row, ok, witness)
    ("base origin", "contains_origin", False, "level 1 frame [1,2]^2 misses the origin"),
    ("1x1 arrangements", "sides_grow", False, "level 2 branching 1 < 2"),
    ("unused child", "all_children_used", False, "level 2 patch 1 never uses child 2"),
    ("anchor id", "anchor_chain", False, "level 2 anchor cell (0, 0) holds id 2, not 1"),
    (("toy", "p1"), "start_scale", False, "p_1 = 5, expected 4"),
    (("toy", "k"), "min_patches", False, "k too small at level [0]"),
    (("toy", "first row"), "unit_first_row", False, "A_1(1,2) = 2"),
    (("toy", "column sum"), "column_sums", False, "A_1 column 1 sums to 65, want 64"),
    (("toy", "floor patches"), "entry_floor_patches", True, "A_1 min lower entry 1 < k = 3" + TOY),
    (("toy", "floor scale"), "entry_floor_scale", True, "A_1 min lower entry 3 < r*p = 32" + TOY),
    (("toy", "stripe ratio"), "stripe_ratio", False, "r_n p_n >= p_n+1 at step [1]"),
    (("toy", "headroom"), "expansion_headroom", True, "headroom inequality fails at step [1]" + TOY),
    (("rigorous", "p1"), "start_scale", False, "p_1 = 5, expected 4"),
    (("rigorous", "k"), "min_patches", False, "k too small at level [0]"),
    (("rigorous", "first row"), "unit_first_row", False, "A_1(1,2) = 2"),
    (("rigorous", "column sum"), "column_sums", False, "A_1 column 1 sums to 1048577, want 1048576"),
    # a failing floor in rigorous mode is a plain FAIL, with no toy suffix
    (("rigorous", "floor patches"), "entry_floor_patches", False, "A_1 min lower entry 1 < k = 3"),
    (("rigorous", "floor scale"), "entry_floor_scale", False, "A_1 min lower entry 3 < r*p = 4096"),
    (("rigorous", "stripe ratio"), "stripe_ratio", False, "r_n p_n >= p_n+1 at step [1]"),
    (("rigorous", "headroom"), "expansion_headroom", False, "headroom inequality fails at step [1]"),
]


@pytest.mark.parametrize("case, name, ok, witness", WITNESSES,
                         ids=[c if isinstance(c, str) else " ".join(c) for c, *_ in WITNESSES])
def test_validator_witnesses(case, name, ok, witness):
    """Each reachable failure of either validator gives its row this pass or
    FAIL and this first witness; toy mode only reports its three soft rows."""
    if isinstance(case, tuple):
        rep = choquet.validate_choquet_seq(_choquet_seq(*case))
    else:
        rep = H.validate_scheme(_scheme(case))
    [row] = [r for r in rep.rows if r.name == name]
    assert (row.ok, row.witness) == (ok, witness)


# ----------------------------------------------------------------------
# repetitivity
# ----------------------------------------------------------------------

def test_repetitivity_full_patch():
    p = Patch(np.ones((9, 9), dtype=np.uint8))
    assert H.estimate_repetitivity(p, 1) == 1


def test_repetitivity_even_column_stripes():
    cells = np.zeros((8, 8), dtype=np.uint8)
    cells[:, 0::2] = 1
    assert H.estimate_repetitivity(Patch(cells), 1) == 2


def test_repetitivity_matches_oracle_on_toy(nonrect3):
    spec = nonrect3.spec
    window = H.materialize(spec, 3, 1)  # 36 x 36
    for r in (1, 2):
        got = H.estimate_repetitivity(window, r)
        want = repetitivity_oracle(window.cells, r)
        assert got == want and got is not None


def test_repetitivity_monotone_in_r(ue3):
    window = Patch(H.materialize(ue3.spec, 4, 1).cells[:48, :48])
    vals = [H.estimate_repetitivity(window, r) for r in (1, 2, 4)]
    assert all(v is not None for v in vals)
    assert vals[0] <= vals[1] <= vals[2]


def test_repetitivity_window_too_small_marker():
    cells = np.zeros((12, 12), dtype=np.uint8)
    cells[0, 0] = 1  # a pattern that lives only in one corner
    assert H.estimate_repetitivity(Patch(cells), 1) is None


def test_repetitivity_r8_matches_oracle(ue3):
    # r = 8 puts the last pattern bit at bit 63 of the code
    window = Patch(H.materialize(ue3.spec, 4, 1).cells[5:29, 7:31])
    periodic = Patch(np.tile(np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8), (8, 8)))
    for p in (window, periodic):
        assert p.side == 24
        assert H.estimate_repetitivity(p, 8) == repetitivity_oracle(p.cells, 8)
    assert H.estimate_repetitivity(periodic, 8) == 10



def test_repetitivity_r5_uses_the_high_code_bits():
    # r = 5 is the first side coded past 16 bits; two phases of this
    # 9 x 2 motif differ only in pattern cells at bits 16 and above
    motif = np.zeros((9, 2), dtype=np.uint8)
    motif[[4, 8], 0] = 1
    p = Patch(np.tile(motif, (3, 12))[:24, :24])
    assert H.estimate_repetitivity(p, 5) == repetitivity_oracle(p.cells, 5) == 13

# widest K x K block of pattern origins tested (K = side - 2r + 1), at and
# next to powers of two, where the sliding OR switches its doublings
POW2_SPANS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17]


@st.composite
def repetitivity_cases(draw):
    """A square patch (random, constant, or a tiled random motif of period
    up to 9, perhaps with one flipped cell) and a pattern side r in 1..5:
    r = 4 is the last side coded in uint16, r = 5 the first in uint64."""
    r = draw(st.integers(1, 5))
    side = max(3 * r, draw(st.sampled_from(POW2_SPANS)) + 2 * r - 1)
    if draw(st.booleans()):
        motif = _bits(draw, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        cells = np.tile(motif, (side, side))[:side, :side].copy()
        if draw(st.booleans()):
            y, x = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
            cells[y, x] ^= 1
    else:
        cells = _fill(draw, side, side)
    return Patch(cells), r


@settings(max_examples=250, deadline=None)
@given(repetitivity_cases())
def test_repetitivity_property(case):
    p, r = case
    assert H.estimate_repetitivity(p, r) == repetitivity_oracle(p.cells, r)


def _probed(p: Patch, r: int) -> tuple[int | None, list[int]]:
    """``estimate_repetitivity(p, r)`` and the block sides K it tested."""
    probes, hold = [], H._blocks_hold

    def probe(mask, K):
        probes.append(K)
        return hold(mask, K)

    with mock.patch.object(H, "_blocks_hold", probe):
        return H.estimate_repetitivity(p, r), probes


@settings(max_examples=250, deadline=None)
@given(repetitivity_cases())
def test_repetitivity_search_grows_with_the_radius(case):
    """The search gallops up from the radius found, so no block it tests is
    wider than twice the answer's, K = R - r + 1."""
    p, r = case
    got, probes = _probed(p, r)
    assert got == repetitivity_oracle(p.cells, r)
    if got is not None:
        assert max(probes) <= 2 * (got - r + 1)


@pytest.mark.parametrize("side", [3, 4, 9, 12, 13])
def test_repetitivity_at_the_largest_window(side):
    """One occupied cell at (1, 1) lies in every window of side - 1 and not
    in every window of side - 2, so R is exactly side - r, the largest side
    tried; at (0, 0) it lies in no window that misses that corner, so no
    side works."""
    cells = np.zeros((side, side), dtype=np.uint8)
    cells[1, 1] = 1
    assert H.estimate_repetitivity(Patch(cells), 1) == repetitivity_oracle(cells, 1) == side - 1
    cells = np.roll(cells, (-1, -1), axis=(0, 1))
    assert H.estimate_repetitivity(Patch(cells), 1) is repetitivity_oracle(cells, 1) is None


def test_repetitivity_search_on_a_large_window(ue3):
    """On the 972^2 level-6 window the radii are 10 and 13, and the widest
    block tested stays within twice theirs, far below side - 2r + 1 = 971."""
    window = H.materialize(ue3.spec, 6, 1)
    for r, want in ((1, 10), (2, 13)):
        got, probes = _probed(window, r)
        assert got == want
        assert max(probes) <= 2 * (want - r + 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_blocks_hold_matches_a_direct_scan(data):
    rows, cols = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
    mask = _bits(data.draw, rows, cols).astype(bool)
    K = data.draw(st.sampled_from([k for k in POW2_SPANS if k <= min(rows, cols)]))
    runs = H._or_runs(mask, K)
    assert np.array_equal(runs, [mask[i : i + K].any(axis=0) for i in range(rows - K + 1)])
    want = all(mask[i : i + K, j : j + K].any() for i in range(rows - K + 1) for j in range(cols - K + 1))
    assert H._blocks_hold(mask, K) == want


def _every_level():
    """Try every level whose tiles can hold a pattern, whatever the sizes
    of the window and of the groups."""
    return mock.patch.multiple(H, _GROUP_SHARE=0, _TRY_CELLS=0)


def _searches(spec, level, pid, r) -> tuple[int | None, list[tuple[int, int]]]:
    """``spec_repetitivity`` and, per search it ran, the widest window side
    it tested up to and the number of patterns it left."""
    runs, search = [], H._search

    def traced(codes, r, top, *args):
        got = search(codes, r, top, *args)
        runs.append((top, len(got[1])))
        return got

    with mock.patch.object(H, "_search", traced):
        return H.spec_repetitivity(spec, level, pid, r), runs


def test_spec_repetitivity_resumes_a_pattern_at_the_next_level(ue3):
    """On the 972^2 level-6 window, r = 2: the 4x4 and 12x12 tiles leave
    patterns that need R > 4 and R > 12, and the 36x36 tiles serve them
    all, at R = 13; the window is never searched."""
    got, runs = _searches(ue3.spec, 6, 1, 2)
    assert got == 13
    assert [top for top, _ in runs] == [4, 12, 36]
    assert runs[0][1] > runs[1][1] > runs[2][1] == 0


def test_spec_repetitivity_at_r_5_codes_in_uint64(ue3):
    """r = 5 codes do not fit 16 bits: with every level tried, the 12x12 and
    36x36 tiles serve some patterns and the window the rest, at the
    window's radius."""
    want = H.estimate_repetitivity(H.materialize(ue3.spec, 5, 1), 5)
    with _every_level():
        got, runs = _searches(ue3.spec, 5, 1, 5)
    assert got == want is not None
    assert [top for top, _ in runs] == [12, 36, 108]
    assert runs[0][1] > runs[1][1] > runs[2][1] == 0


def test_spec_repetitivity_window_too_small():
    """One occupied cell, at the corner of a 36x36 window: the 12x12 tiles
    serve the empty pattern and leave the occupied one to the window,
    which no side up to 35 serves either."""
    empty, dot = np.zeros((4, 4), np.uint8), np.zeros((4, 4), np.uint8)
    dot[0, 0] = 1
    corner = np.array([[2, 1, 1], [1, 1, 1], [1, 1, 1]])
    spec = HierarchySpec([Patch(empty), Patch(dot)], [
        Level((Arrangement.dense(corner), Arrangement.dense(np.ones((3, 3), int)))),
        Level((Arrangement.dense(3 - corner),)),
    ])
    assert H.materialize(spec, 3, 1).popcount() == 1
    with _every_level():
        got, runs = _searches(spec, 3, 1, 1)
    assert got is None is H.estimate_repetitivity(H.materialize(spec, 3, 1), 1)
    assert runs == [(4, 1), (12, 1), (35, 1)]


def test_spec_repetitivity_through_a_level_of_branching_one():
    """A level-3 patch that is one level-2 patch: its level-2 tiling is one
    tile, so the groups start at level 1."""
    rng = np.random.default_rng(3)
    base = [Patch(rng.integers(0, 2, (4, 4), dtype=np.uint8)) for _ in range(2)]
    spec = HierarchySpec(base, [
        Level(tuple(Arrangement.dense(rng.integers(1, 3, (3, 3))) for _ in range(2))),
        Level((Arrangement.dense(np.array([[2]])), Arrangement.dense(np.array([[1]])))),
    ])
    with _every_level():
        assert [t for t, _ in H._tile_groups(spec, 3, 1, 1)] == [1]
    window = H.materialize(spec, 3, 1)
    for r in (1, 2, 3, 4):
        with _every_level():
            assert H.spec_repetitivity(spec, 3, 1, r) == H.estimate_repetitivity(window, r)


def test_repetitivity_preconditions():
    p = Patch(np.ones((5, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match="3r"):
        H.estimate_repetitivity(p, 2)


# ----------------------------------------------------------------------
# descriptor round trips and frames
# ----------------------------------------------------------------------

def test_dhs_round_trip_dense_and_compact(tmp_path, ue3):
    spec = ue3.spec
    path = tmp_path / "ue.dhs"
    H.write_spec(path, spec)
    back = H.read_spec(path)
    assert back.kind == spec.kind and back.anchored == spec.anchored
    assert back.num_levels == spec.num_levels
    for t in range(1, spec.num_levels + 1):
        assert back.side(t) == spec.side(t)
        assert back.popcounts(t) == spec.popcounts(t)
    for lv, lv2 in zip(spec.levels, back.levels):
        assert lv.anchor == lv2.anchor and lv.meta == lv2.meta
    m1 = H.materialize(spec, 4, 2)
    m2 = H.materialize(back, 4, 2)
    assert m1 == m2


def test_origin_follows_anchor(ue3):
    spec = ue3.spec
    # mix levels recenter; alternation levels keep the corner
    assert spec.origin(1) == (0, 0)
    assert spec.origin(2) == (0, 0)
    assert spec.origin(3) == (-12, -12)


def test_base_patch_bitsets():
    spec = toy_spec()
    sparse_corner = from_rows(["1010", "1010", "1010", "1111"])
    assert H.materialize(spec, 1, 1).same_content(sparse_corner)
    assert H.materialize(spec, 1, 2).same_content(Patch(np.ones((4, 4), dtype=np.uint8)))


def test_sliding_counts_with_rectangular_needles(ue3):
    spec = ue3.spec
    rng = np.random.default_rng(8)
    grids = {pid: H.materialize(spec, 4, pid).cells for pid in (1, 2)}
    for _ in range(6):
        w = int(rng.integers(1, 6))
        h = int(rng.integers(1, 6))
        x = int(rng.integers(0, 12 - w + 1))
        y = int(rng.integers(0, 12 - h + 1))
        needle = Patch(H.materialize(spec, 2, 1).cells[y : y + h, x : x + w])
        for pid in (1, 2):
            want = H.scan_count(grids[pid], needle)
            got = H.count_occurrences(spec, needle, 4, pid, SLIDING)
            assert got == want, (w, h, x, y, pid)


def test_block_count_at_own_level():
    spec = toy_spec()
    top1 = H.materialize(spec, 2, 1)
    assert H.count_occurrences(spec, top1, 2, 1, BLOCK_ALIGNED) == 1
    assert H.count_occurrences(spec, top1, 2, 2, BLOCK_ALIGNED) == 0


def test_occupied_count_identity(ue3):
    # occupied cells of any level equal the block-count-weighted base sizes
    spec = ue3.spec
    for level in range(1, 6):
        counts = spec.count_matrix(1, level)
        for pid in (1, 2):
            want = sum(
                counts[i][pid - 1] * spec.base[i].popcount() for i in range(2)
            )
            assert spec.popcounts(level)[pid - 1] == want
        assert spec.cell_count(level) == spec.side(level) ** 2
    m = H.materialize(spec, 5, 2)
    assert m.popcount() == spec.popcounts(5)[1]


def test_rigorous_descriptor_round_trip():
    from delone import nonrect

    build = nonrect.build_delone_spec(
        nonrect.counting_schedule(1), 1, mode="rigorous", max_levels=3
    )
    text = H.dumps_spec(build.spec)
    back = H.loads_spec(text)
    assert back.num_levels == build.spec.num_levels
    for t in range(1, back.num_levels + 1):
        assert back.side(t) == build.spec.side(t)
        assert back.popcounts(t) == build.spec.popcounts(t)
    assert H.dumps_spec(back) == text


def test_sliding_needle_wider_than_grandchildren(ue3):
    # a 6x6 needle fits level-3 children but not level-1 blocks, so the
    # recursion bottoms out in a direct scan two levels down
    spec = ue3.spec
    needle = Patch(H.materialize(spec, 3, 1).cells[5:11, 7:13])
    grid = H.materialize(spec, 4, 1).cells
    assert H.count_occurrences(spec, needle, 4, 1, SLIDING) == H.scan_count(grid, needle)


# ----------------------------------------------------------------------
# seam recursion against full scans
# ----------------------------------------------------------------------

MAX_SIDE = 160


def _bits(draw, rows, cols):
    cells = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.uint8).reshape(rows, cols)


@st.composite
def small_specs(draw):
    """Random hierarchies mixing dense levels (branching 2-4, 1-3 patches),
    alternating-bottom levels (small odd block counts) and band levels
    (branching 3-4, 1-3 patches, bands of periodic rows)."""
    side, k = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    base = [Patch(_bits(draw, side, side)) for _ in range(k)]
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["dense", "altbottom", "bands"] if k >= 2 else ["dense"]))
        if shape == "altbottom":
            s, b = draw(st.integers(1, 2)), draw(st.sampled_from([3, 5]))
            main, alt = draw(st.permutations(range(1, k + 1)))[:2]
            arrs = [Arrangement.altbottom(s, b, main, alt), Arrangement.altbottom(s, b, alt, main)]
        elif shape == "bands":
            # n rows cut into bands as a line is cut into runs, each band a
            # periodic row, so an "H" seam often pairs two periodic edges
            n, ids = draw(st.integers(3, 4)), st.integers(1, k)
            arrs = [
                Arrangement(tuple((_band_row(draw, n, ids, 2), m) for _, m in _runs(draw, n, st.none())))
                for _ in range(draw(st.integers(1, 3)))
            ]
        else:
            n = draw(st.integers(2, 4))
            ids = st.lists(st.integers(1, k), min_size=n * n, max_size=n * n)
            arrs = [
                Arrangement.dense(np.array(draw(ids)).reshape(n, n))
                for _ in range(draw(st.integers(1, 3)))
            ]
        if side * arrs[0].rows > MAX_SIDE:
            break
        side *= arrs[0].rows
        levels.append(Level(arrs))
        k = len(arrs)
    assume(levels)
    return HierarchySpec(base, levels)


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_spec_repetitivity_equals_the_window(spec):
    """Every level and pid with side >= 3r, r = 1..4, under the level rule
    and with every level tried: the window's estimate, which is the
    oracle's on windows up to 36 wide."""
    for t in range(1, spec.num_levels + 1):
        for pid in range(1, spec.k(t) + 1):
            window = H.materialize(spec, t, pid)
            for r in range(1, 1 + window.side // 3):
                if r > 4:
                    break
                want = H.estimate_repetitivity(window, r)
                assert H.spec_repetitivity(spec, t, pid, r) == want, (t, pid, r)
                with _every_level():
                    assert H.spec_repetitivity(spec, t, pid, r) == want, (t, pid, r)
                if window.side <= 36:
                    assert want == repetitivity_oracle(window.cells, r)


def _grids(spec) -> dict[tuple[int, int], np.ndarray]:
    """Every patch of ``spec`` materialized, by (level, pid)."""
    return {(t, p): H.materialize(spec, t, p).cells
            for t in range(1, spec.num_levels + 1) for p in range(1, spec.k(t) + 1)}


def _draw_needle(data, spec, grids) -> Patch:
    """A rectangular needle, mostly small enough for seams several levels
    deep, some up to 7 wide, so wider than grandchildren: cut from a top
    patch or random."""
    top = spec.num_levels
    dims = st.one_of(st.integers(1, 3), st.integers(1, 7)).filter(lambda d: d <= spec.side(top))
    w, h = data.draw(dims), data.draw(dims)
    if data.draw(st.booleans()):
        src = grids[(top, data.draw(st.integers(1, spec.k(top))))]
        x = data.draw(st.integers(0, src.shape[1] - w))
        y = data.draw(st.integers(0, src.shape[0] - h))
        return Patch(src[y : y + h, x : x + w].copy())
    return Patch(_bits(data.draw, h, w))


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.data())
def test_sliding_recursion_equals_scan(spec, data):
    top = spec.num_levels
    grids = _grids(spec)
    needle = _draw_needle(data, spec, grids)
    w, h = needle.width, needle.height
    want = {}
    for (t, p), grid in grids.items():
        if max(w, h) <= spec.side(t):
            want[(t, p)] = H.scan_count(grid, needle)
            assert H.count_occurrences(spec, needle, t, p, SLIDING) == want[(t, p)], (t, p)
    lo = min(t for t, _ in want)
    rep = ue.frequency_convergence_report(spec, needle, lo, top)
    assert {(r.level, r.pid): r.count for r in rep.rows} == want


@settings(max_examples=100, deadline=None)
@given(small_specs(), st.data())
def test_every_memo_entry_equals_its_scans(spec, data):
    """Each memo entry, not only the totals, against direct scans of the
    materialized patches it joins, by inclusion-exclusion: a seam is the
    scan of its two patches side by side less the scans of each, and a
    junction the scan of its 2x2 block less its two row pairs and two
    column pairs, plus its four patches."""
    top = spec.num_levels
    grids = _grids(spec)
    needle = _draw_needle(data, spec, grids)
    memo: dict = {}
    for p in range(1, spec.k(top) + 1):
        H.count_occurrences(spec, needle, top, p, SLIDING, _memo=memo)

    def scan(*rows) -> int:
        """Scan of the block of level-t patches ``rows`` (bottom row first)."""
        return H.scan_count(np.vstack([np.hstack([grids[(t, p)] for p in row]) for row in rows]), needle)

    for (kind, t, *ids), got in memo.items():
        if kind == "n":
            want = scan(ids)
        elif kind == "V":
            a, b = ids
            want = scan((a, b)) - scan((a,)) - scan((b,))
        elif kind == "H":
            a, b = ids
            want = scan((a,), (b,)) - scan((a,)) - scan((b,))
        else:
            bl, br, tl, tr = ids
            want = (scan((bl, br), (tl, tr)) - scan((bl, br)) - scan((tl, tr)) - scan((bl,), (tl,))
                    - scan((br,), (tr,)) + sum(scan((p,)) for p in ids))
        assert got == want, (kind, t, ids)


@st.composite
def repeated_specs(draw):
    """One level laid on itself as often as the side allows: k base patches
    and k dense or band arrangements over ids 1..k, so every level shares
    the same arrangement objects and the seam tables they keep."""
    side, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    base = [Patch(_bits(draw, side, side)) for _ in range(k)]
    n, ids = draw(st.integers(2, 4)), st.integers(1, k)
    if draw(st.booleans()):
        arrs = [Arrangement.dense(np.array(draw(st.lists(ids, min_size=n * n, max_size=n * n))).reshape(n, n))
                for _ in range(k)]
    else:
        arrs = [Arrangement(tuple((_band_row(draw, n, ids, 2), m) for _, m in _runs(draw, n, st.none())))
                for _ in range(k)]
    reps = 1
    while side * n ** (reps + 1) <= MAX_SIDE:
        reps += 1
    return HierarchySpec(base, (Level(arrs),) * draw(st.integers(2, reps)))


@settings(max_examples=60, deadline=None)
@given(repeated_specs(), st.data())
def test_shared_arrangements_count_as_their_own_copies(spec, data):
    """Sliding counts on a spec whose levels share arrangement objects
    equal those on the same spec with every arrangement its own object,
    and both equal scans of the materialized patches."""
    own = _own_objects(spec)
    assert len({id(a) for lv in own.levels for a in lv.arrangements}) == spec.k(1) * len(own.levels)
    grids = _grids(spec)
    top = spec.num_levels
    dims = st.integers(2, 5).filter(lambda d: d <= spec.side(top))
    w, h = data.draw(dims), data.draw(dims)
    needle = Patch(grids[(top, 1)][:h, :w].copy()) if data.draw(st.booleans()) else Patch(_bits(data.draw, h, w))
    for (t, p), grid in grids.items():
        if max(w, h) <= spec.side(t):
            want = H.scan_count(grid, needle)
            assert H.count_occurrences(spec, needle, t, p, SLIDING) == want, (t, p)
            assert H.count_occurrences(own, needle, t, p, SLIDING) == want, (t, p)


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.integers(1, 400))
def test_export_streams_what_materialize_dumps(spec, strip):
    """``export --spec`` writes, a strip at a time off the hierarchy, the
    bytes of ``dumps_pbm``/``dumps_patch`` of the materialized patch, at
    every level and pid, cut out tile by tile (``materialize_region``, which
    reads no rows of tiles); strips of ``strip`` cells cut most rows of
    tiles into several."""
    with tempfile.TemporaryDirectory() as d, mock.patch("delone.patch._STRIP", strip):
        path = Path(d) / "s.dhs"
        H.write_spec(path, spec)
        for t in range(1, spec.num_levels + 1):
            side = spec.side(t)
            for p in range(1, spec.k(t) + 1):
                window = Patch(H.materialize_region(spec, t, p, 0, 0, side, side), spec.origin(t))
                assert window == H.materialize(spec, t, p)
                for fmt, dumps in (("pbm", dumps_pbm), ("dpf", dumps_patch)):
                    out = Path(d) / f"w.{fmt}"
                    argv = ["export", "--spec", str(path), "--level", str(t), "--id", str(p), "--format", fmt]
                    assert cli.main([*argv, "--out", str(out)]) == 0
                    assert out.read_bytes() == dumps(window).encode(), (t, p, fmt)


@pytest.mark.parametrize("stray", [0, 2])
def test_materialize_refuses_a_stray_child_id(stray):
    """A spec built in memory is not read through the .dhs loader; a stray
    child id in it would drop cells from ``popcounts`` and break counts and
    scans.  It is refused when the spec is built, on each of the three
    construction paths, so it never reaches ``materialize``."""
    base = [Patch(np.ones((2, 2), dtype=np.uint8))]
    good = Level([Arrangement.dense(np.ones((2, 2), dtype=np.int64))])
    bad = Level([Arrangement.dense(np.array([[1, stray], [1, 1]]))])
    below = HierarchySpec(base, [good])
    builds = [
        lambda: HierarchySpec(base, [bad]),
        lambda: dataclasses.replace(below, levels=(bad,)),
        lambda: HierarchySpec(base).extended(bad),
        lambda: below.extended(bad),
    ]
    for level, build in zip([2, 2, 2, 3], builds):
        with pytest.raises(H.SpecError, match=rf"level {level} patch 1 references id outside 1\.\.1"):
            H.materialize(build(), level, 1)


def test_wide_junctions_recurse_into_their_corner_children():
    """Four levels of 3x3 arrangements, so a junction's four patches each
    have children other than the corner ones, counted with every 2x2
    needle and some 3x3 windows: every junction recurses into the junction
    of the four children that touch it (the top-right patch's child at
    (0, 0), its bottom-left corner) down to level 1."""
    rng = np.random.default_rng(24)
    base = [Patch(rng.integers(0, 2, size=(3, 3), dtype=np.uint8)) for _ in range(3)]
    levels = [Level([Arrangement.dense(rng.integers(1, 4, size=(3, 3))) for _ in range(3)]) for _ in range(3)]
    spec = HierarchySpec(base, levels)
    top = spec.num_levels
    grids = {p: H.materialize(spec, top, p).cells for p in range(1, spec.k(top) + 1)}
    needles = [Patch(np.array(bits, dtype=np.uint8).reshape(2, 2)) for bits in itertools.product((0, 1), repeat=4)]
    needles += [Patch(grids[1][y : y + 3, x : x + 3]) for y, x in ((0, 0), (40, 7), (13, 55))]
    for needle in needles:
        for p, grid in grids.items():
            assert H.count_occurrences(spec, needle, top, p, SLIDING) == H.scan_count(grid, needle), (needle, p)


def _fresh_frame(spec, level):
    side, (ox, oy) = spec.base[0].width, spec.base[0].origin
    for lv in spec.levels[: level - 1]:
        ox, oy = ox - lv.anchor[0] * side, oy - lv.anchor[1] * side
        side *= lv.branching
    return side, (ox, oy)


def _check_frames(spec):
    """Frames, popcounts and step counts of every level against a
    recompute: the frame walk above, popcounts of materialized patches
    and the arrangements' own counts."""
    for t in range(1, spec.num_levels + 1):
        assert (spec.side(t), spec.origin(t)) == _fresh_frame(spec, t)
        pops = [H.materialize(spec, t, pid).popcount() for pid in range(1, spec.k(t) + 1)]
        assert spec.popcounts(t) == pops
        assert [spec.density(t, pid) for pid in range(1, spec.k(t) + 1)] == [
            Fraction(c, spec.side(t) ** 2) for c in pops
        ]
        if t > 1:
            cols = [arr.counts(spec.k(t - 1)) for arr in spec.levels[t - 2].arrangements]
            assert spec.step_count_matrix(t) == [list(row) for row in zip(*cols)]


def test_frames_follow_level_edits():
    """A spec cannot be edited in place; each changed spec is a new one, made
    by extended, by the constructor or by dataclasses.replace, and its frame
    rows follow the change."""
    spec = toy_spec(ell=1)
    assert spec.side(2) == 12
    _check_frames(spec)
    spec = spec.extended(ue.mix_level())  # grow by one level
    _check_frames(spec)
    spec = spec.extended(nonrect.alternation_level(1, 1, 2))
    _check_frames(spec)
    spec = dataclasses.replace(spec, levels=spec.levels[:-1] + (ue.mix_level(),))  # a new top
    assert spec.side(4) == 108
    _check_frames(spec)
    spec = HierarchySpec(spec.base, spec.levels[:-1], spec.kind, spec.anchored)  # the top dropped
    assert spec.num_levels == 3 and spec.side(3) == 36
    _check_frames(spec)
    with pytest.raises(H.SpecError):
        spec.side(4)
    two = (nonrect.alternation_level(1, 1, 2), ue.mix_level())
    spec = HierarchySpec(spec.base, spec.levels[:-1] + two, spec.kind, spec.anchored)  # grow by two
    _check_frames(spec)
    spec = dataclasses.replace(spec, levels=(nonrect.alternation_level(1, 1, 2),) + spec.levels[1:])
    assert spec.side(4) == 4 * 5 * 5 * 3  # a level below the top replaced
    _check_frames(spec)
    spec = dataclasses.replace(spec, base=(Patch(1 - spec.base[0].cells, spec.base[0].origin),) + spec.base[1:])
    _check_frames(spec)


def test_specs_cannot_be_edited():
    spec = nonrect.build_delone_spec(nonrect.counting_schedule(1), 1, mode="toy").spec
    assert spec.popcounts(2) == [96, 138]
    with pytest.raises(TypeError):  # the in-level edit the frame table once missed
        spec.levels[0].arrangements[0] = ue.mix_level().arrangements[1]
    with pytest.raises(AttributeError):
        spec.levels.append(ue.mix_level())
    with pytest.raises(TypeError):
        spec.base[0] = spec.base[1]
    for obj, attr, value in [
        (spec, "levels", ()), (spec, "base", spec.base[:1]), (spec, "kind", "custom"),
        (spec.levels[0], "arrangements", ()), (spec.levels[0], "anchor", (1, 1)),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, value)
    assert spec.popcounts(2) == [96, 138] and spec.levels[0].anchor == (0, 0)


def test_extended_computes_one_row():
    spec = toy_spec(ell=2)
    lv = ue.mix_level()
    with mock.patch.object(H.Arrangement, "counts", autospec=True, side_effect=H.Arrangement.counts) as counts:
        grown = spec.extended(lv)
    assert counts.call_count == len(lv.arrangements)
    assert grown.levels == spec.levels + (lv,) and grown.meta == spec.meta
    assert grown.meta is not spec.meta and spec.num_levels == 3
    _check_frames(grown)


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_grown_spec_matches_spec_built_at_once(spec):
    grown = HierarchySpec(spec.base)
    for lv in spec.levels:
        grown = grown.extended(lv)
    assert grown == spec
    for t in range(1, spec.num_levels + 1):
        assert (grown.side(t), grown.origin(t), grown.popcounts(t)) == (
            spec.side(t), spec.origin(t), spec.popcounts(t))
        if t > 1:
            assert grown.step_count_matrix(t) == spec.step_count_matrix(t)
    # a new base: every row is recomputed from it
    flipped = dataclasses.replace(grown, base=tuple(Patch(1 - p.cells, p.origin) for p in spec.base))
    _check_frames(flipped)


# ----------------------------------------------------------------------
# rigorous scale: sides far beyond any materialization
# ----------------------------------------------------------------------

RIGOROUS = {
    "nonrect": lambda: nonrect.build_delone_spec(nonrect.counting_schedule(1), 1, mode="rigorous").spec,
    "ue": lambda: ue.build_ue_spec(None, 1, mode="rigorous").spec,
}


@pytest.mark.parametrize("kind", sorted(RIGOROUS))
def test_rigorous_two_by_two_counts_cover_the_top_level(kind):
    spec = RIGOROUS[kind]()
    top = spec.num_levels
    side = spec.side(top)
    assert top == 65 and side > 10**1200
    # every 2x2 placement matches exactly one of the 16 needles
    needles = [Patch(np.array(bits, dtype=np.uint8).reshape(2, 2))
               for bits in itertools.product((0, 1), repeat=4)]
    total = sum(H.count_occurrences(spec, nd, top, 1, SLIDING) for nd in needles)
    assert total == (side - 1) ** 2


# (builder, arrangements, distinct arrangements) of specs whose .dhs the loader shares
SHARED = {
    "rigorous-nonrect-1": (RIGOROUS["nonrect"], 128, 4),
    "rigorous-ue-1": (RIGOROUS["ue"], 128, 6),
    "ue-toy-5": (lambda: ue.build_ue_spec(None, 5, mode="toy").spec, 20, 4),
    "choquet-toy-4": (lambda: choquet.build_choquet_spec(2, 4, mode="toy", ratio_cap=128).spec, 9, 9),
}


def _objects(spec):
    arrs = [a for lv in spec.levels for a in lv.arrangements]
    return len(arrs), len({id(a) for a in arrs})


def _own_objects(spec):
    """``spec`` with every arrangement rebuilt as its own object."""
    return HierarchySpec(spec.base, [Level([Arrangement(a.bands) for a in lv.arrangements], lv.anchor,
                                           lv.n_is_one, lv.meta) for lv in spec.levels],
                         spec.kind, spec.anchored, spec.meta)


@pytest.mark.parametrize("name", sorted(SHARED))
def test_repeated_arrangements_load_as_one_object(name):
    """Built and loaded, a spec holds one object per distinct arrangement."""
    build, count, distinct = SHARED[name]
    built = build()
    text = H.dumps_spec(built)
    spec = H.loads_spec(text)
    assert _objects(built) == _objects(spec) == (count, distinct)
    assert H.dumps_spec(spec) == text


@pytest.mark.parametrize("name", sorted(SHARED))
def test_built_loaded_and_unshared_specs_count_alike(name):
    """Sliding counts of every 2x2 needle, at the top level and the one
    below, agree on the built spec, its loaded form and its unshared copy."""
    built = SHARED[name][0]()
    forms = [built, H.loads_spec(H.dumps_spec(built)), _own_objects(built)]
    assert _objects(forms[2])[1] == _objects(built)[0]
    top = built.num_levels
    for nd in _all_needles(2, 2):
        for t in (top - 1, top):
            counts = [[H.count_occurrences(f, nd, t, p, SLIDING) for p in range(1, f.k(t) + 1)] for f in forms]
            assert counts[0] == counts[1] == counts[2], (t, nd)


def test_kept_seams_grow_with_distinct_pairs_not_levels():
    """A top-level count on the rigorous ue spec (65 levels), built and
    loaded, keeps at most one seam per kind and distinct pair of
    arrangement objects."""
    built = RIGOROUS["ue"]()
    needle = Patch(np.array([[1, 0, 1], [1, 1, 1], [1, 0, 1]], dtype=np.uint8))
    for spec in (built, H.loads_spec(H.dumps_spec(built))):
        H.count_occurrences(spec, needle, spec.num_levels, 1, SLIDING)
        arrs = {id(a): a for lv in spec.levels for a in lv.arrangements}
        pairs = {(id(a), id(b)) for lv in spec.levels for a in lv.arrangements for b in lv.arrangements}
        kept = sum(len(a._seams) for a in arrs.values())
        assert len(pairs) < spec.num_levels and 0 < kept <= 2 * len(pairs)


def _all_needles(w, h):
    return [Patch(np.array(bits, dtype=np.uint8).reshape(h, w))
            for bits in itertools.product((0, 1), repeat=w * h)]


@pytest.mark.parametrize("kind", sorted(RIGOROUS))
def test_rigorous_rectangular_counts_cover_the_top_level(kind):
    """1x2 and 2x1 needles cross one seam orientation each, so their sums
    tell the vertical and horizontal seams apart; 2x3 needles on ue cross
    junctions with unequal corner tiles.  The memo only holds n/V/H/C keys."""
    spec = RIGOROUS[kind]()
    top = spec.num_levels
    side = spec.side(top)
    shapes = [(1, 2), (2, 1)] + ([(2, 3)] if kind == "ue" else [])
    kinds = set()
    for w, h in shapes:
        total = 0
        for nd in _all_needles(w, h):
            memo: dict = {}
            total += H.count_occurrences(spec, nd, top, 1, SLIDING, _memo=memo)
            kinds |= {key[0] for key in memo}
        assert total == (side - w + 1) * (side - h + 1), (w, h)
    assert kinds == ({"n", "V", "H", "C"} if kind == "ue" else {"n", "V", "H"})


def test_cli_count_on_rigorous_descriptor(tmp_path, capsys):
    spec = RIGOROUS["nonrect"]()
    H.write_spec(tmp_path / "r.dhs", spec)
    needle = from_rows(["10", "11"])
    (tmp_path / "n.dpf").write_text(dumps_patch(needle))
    top = spec.num_levels
    rc = cli.main(["count", "--spec", str(tmp_path / "r.dhs"), "--needle", str(tmp_path / "n.dpf"),
                   "--level", str(top), "--id", "2"])
    assert rc == 0
    assert int(capsys.readouterr().out) == H.count_occurrences(spec, needle, top, 2, SLIDING)
