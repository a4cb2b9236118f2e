"""The .dhs descriptor and plain PBM codecs: round trips and malformed input."""

import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delone import cli
from delone import hierarchy as H
from delone.choquet import read_matrices_file, read_simplex_spec
from delone.hierarchy import Arrangement, HierarchySpec, Level
from delone.maps import parse_map
from delone.patch import (
    Patch,
    PatchFormatError,
    dumps_patch,
    dumps_pbm,
    loads_patch,
    loads_pbm,
    read_points,
)
from tests_oracles import dense_row_oracle, loads_spec_oracle, row_runs_oracle, spec_lines_oracle


def _altbottom_line(arr: Arrangement) -> str | None:
    """The one-line spelling of ``arr`` when its bands are exactly those of
    ``Arrangement.altbottom``, the parameters read off the bottom band's
    multiplicity and the grid's bottom row; else None."""
    s, bottom = arr.bands[0][1], arr.to_grid()[0].tolist()
    fields = (s, arr.cols // s, bottom[0], bottom[min(s, arr.cols - 1)])
    try:
        if Arrangement.altbottom(*fields).bands != arr.bands:
            return None
    except H.SpecError:
        return None
    return f"arrangement {arr.rows} {arr.cols} altbottom " + " ".join(map(str, fields))


def _joined_dhs(spec: HierarchySpec) -> str:
    """The per-id join formula the .dhs writer once used."""
    out = ["DHS 1", f"kind {spec.kind}", f"anchored {int(spec.anchored)}"]
    for k in sorted(spec.meta):
        out.append(f"meta {k} {spec.meta[k]}")
    out.append(f"level 1 patches {len(spec.base)}")
    for p in spec.base:
        out.append(dumps_patch(p).rstrip("\n"))
    for t, lv in enumerate(spec.levels, start=2):
        out.append(f"level {t} patches {len(lv.arrangements)}")
        out.append(f"anchor {lv.anchor[0]} {lv.anchor[1]}")
        if lv.n_is_one:
            out.append("n1")
        for k in sorted(lv.meta):
            out.append(f"meta {k} {lv.meta[k]}")
        for arr in lv.arrangements:
            alt = _altbottom_line(arr)
            if alt:
                out.append(alt)
            else:
                out.append(f"arrangement {arr.rows} {arr.cols}")
                for row in arr.to_grid()[::-1]:
                    out.append(" ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"


WORDS = st.from_regex(r"[a-z][a-z0-9_/]{0,6}", fullmatch=True)
VALUES = st.from_regex(r"[a-z0-9/]{1,6}( [a-z0-9/]{1,6})?", fullmatch=True)


@st.composite
def dhs_specs(draw):
    """Hierarchies of 0..3 levels over 1..12 base patches: dense levels of
    1..12 arrangements with ids up to 12 (so ids at or above 10 occur),
    alternating-bottom levels over at least two children, random anchors,
    n1 flags and meta lines."""
    side = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12))
    base = [
        Patch(np.array(draw(st.lists(st.integers(0, 1), min_size=side * side, max_size=side * side)),
                       dtype=np.uint8).reshape(side, side))
        for _ in range(k)
    ]
    levels = []
    for _ in range(draw(st.integers(0, 3))):
        kn = draw(st.integers(1, 12))
        if k >= 2 and draw(st.booleans()):
            s, b = draw(st.integers(1, 3)), draw(st.sampled_from([3, 5]))
            pairs = st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)
            arrs = [Arrangement.altbottom(s, b, *draw(pairs)) for _ in range(kn)]
        else:
            b = draw(st.integers(1, 4))
            ids = st.lists(st.integers(1, k), min_size=b * b, max_size=b * b)
            arrs = [Arrangement.dense(np.array(draw(ids), dtype=np.int64).reshape(b, b)) for _ in range(kn)]
        n = arrs[0].rows
        anchor = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        meta = draw(st.dictionaries(WORDS, VALUES, max_size=2))
        levels.append(Level(arrs, anchor, draw(st.booleans()), meta))
        k = kn
    meta = draw(st.dictionaries(WORDS, VALUES, max_size=2))
    return HierarchySpec(base, levels, draw(WORDS), draw(st.booleans()), meta)


@settings(max_examples=150, deadline=None)
@given(dhs_specs())
def test_dhs_codec_round_trip(spec):
    text = H.dumps_spec(spec)
    assert text == _joined_dhs(spec)
    back = H.loads_spec(text)
    assert H.dumps_spec(back) == text
    assert (back.kind, back.anchored, back.meta) == (spec.kind, spec.anchored, spec.meta)
    assert [p.cells.tobytes() for p in back.base] == [p.cells.tobytes() for p in spec.base]
    for lv, lv2 in zip(spec.levels, back.levels, strict=True):
        assert (lv.anchor, lv.n_is_one, lv.meta) == (lv2.anchor, lv2.n_is_one, lv2.meta)
        assert tuple(lv.arrangements) == tuple(lv2.arrangements)
    for t in range(1, spec.num_levels + 1):
        assert back.popcounts(t) == spec.popcounts(t)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.dhs"
        H.write_spec(path, spec)
        assert path.read_bytes() == text.encode()


def _tables(arr):
    return arr.counts(12), *arr._tables(), arr.to_grid().tolist()


@settings(max_examples=100, deadline=None)
@given(dhs_specs())
def test_band_spelling_round_trip(spec):
    """Under a cap of one cell every arrangement of two or more cells but
    the alternating-bottom ones is written as bands; the bands load back to
    the same tables and grid and write the same text, and under the default
    cap the spec is still written dense."""
    dense = H.dumps_spec(spec)
    with mock.patch.dict(os.environ, {"DELONE_CELL_CAP": "1"}):
        text = H.dumps_spec(spec)
        back = H.loads_spec(text)
        assert H.dumps_spec(back) == text
    wide = [a for lv in spec.levels for a in lv.arrangements
            if a.rows * a.cols > 1 and not _altbottom_line(a)]
    assert text.count(" bands ") == len(wide)
    for lv, lv2 in zip(spec.levels, back.levels, strict=True):
        assert [_tables(a) for a in lv.arrangements] == [_tables(b) for b in lv2.arrangements]
    assert H.dumps_spec(back) == H.dumps_spec(spec) == dense == _joined_dhs(spec)


@pytest.mark.parametrize("construction", ["ue", "nonrect"])
def test_the_depth_3_toy_descriptors_spell_altbottom_in_six_lines(tmp_path, construction):
    out = tmp_path / f"{construction}3.dhs"
    assert cli.main(["gen", "--construction", construction, "--depth", "3", "--mode", "toy", "--out", str(out)]) == 0
    text = out.read_text()
    assert sum("altbottom" in ln for ln in text.splitlines()) == 6
    assert H.dumps_spec(H.read_spec(out)) == text


def test_altbottom_spelling_follows_the_bands():
    """The one-line altbottom spelling is chosen from the bands: a dense
    grid with altbottom content is written dense, and hand-written bands
    equal to altbottom's load equal to it and are written in one line."""
    base = [Patch(np.ones((1, 1), dtype=np.uint8))] * 3
    dense = Arrangement.dense(Arrangement.altbottom(1, 3, 1, 2).to_grid())
    text = H.dumps_spec(HierarchySpec(base, [Level([dense])]))
    assert text.endswith("arrangement 3 3\n1 1 1\n1 1 1\n1 2 1\n")
    assert H.loads_spec(text).levels[0].arrangements[0] == dense
    head = "DHS 1\nlevel 1 patches 3\n" + "PATCH 1 1 0 0\n1\n" * 3 + "level 2 patches 1\n"
    bands = "arrangement 10 10 bands 2\nband 2 pieces 2\n2 3 2 1 2\n1 3 2\nband 8 pieces 1\n1 3 10\n"
    spec = H.loads_spec(head + bands)
    assert spec.levels[0].arrangements[0] == Arrangement.altbottom(2, 5, 3, 1)
    assert H.dumps_spec(spec).endswith("arrangement 10 10 altbottom 2 5 3 1\n")
    # runs of one id in altbottom's shape are not spelled altbottom, which needs two ids
    same = "arrangement 3 3 bands 2\nband 1 pieces 2\n1 1 1 1 1\n1 1 1\nband 2 pieces 1\n1 1 3\n"
    text = H.dumps_spec(H.loads_spec(head + same))
    assert text.endswith("arrangement 3 3\n1 1 1\n1 1 1\n1 1 1\n")
    assert H.dumps_spec(H.loads_spec(text)) == text


@pytest.mark.parametrize("body", ["1 01\n01 1", "01 1\n1 01", "1 1\n001 1"])
def test_dense_body_ids_load_as_integers(body):
    """Spellings of one id (``1``, ``01``) make one run and one band."""
    text = f"DHS 1\nlevel 1 patches 1\nPATCH 1 1 0 0\n1\nlevel 2 patches 1\narrangement 2 2\n{body}\n"
    spec = H.loads_spec(text)
    assert spec.levels[0].arrangements[0] == Arrangement.dense(np.ones((2, 2), dtype=np.int64))
    assert H.dumps_spec(spec).endswith("arrangement 2 2\n1 1\n1 1\n")


def test_dhs_writer_covers_both_id_paths():
    # ids 0..9 go through the byte buffer, larger ids through the join
    base = [Patch(np.ones((1, 1), dtype=np.uint8))] * 12
    for ids in ([[9, 1], [2, 3]], [[10, 1], [12, 3]]):
        spec = HierarchySpec(base, [Level([Arrangement.dense(np.array(ids))])])
        text = H.dumps_spec(spec)
        assert text == _joined_dhs(spec)
        assert text.endswith("arrangement 2 2\n" + " ".join(map(str, ids[1])) + "\n"
                             + " ".join(map(str, ids[0])) + "\n")
        assert H.loads_spec(text).levels[0].arrangements[0].to_grid().tolist() == ids


def test_dense_grids_keep_the_smallest_id_dtype(tmp_path):
    """Both id paths of the loader give uint8 grids when the ids fit, and a
    dense grid keeps the smallest dtype that holds its id range."""
    out = tmp_path / "c.dhs"
    assert cli.main(["gen", "--construction", "choquet", "--depth", "2", "--mode", "rigorous",
                     "--out", str(out)]) == 0
    spec = H.loads_spec(out.read_text())
    assert {arr.to_grid().dtype for lv in spec.levels for arr in lv.arrangements} == {np.dtype(np.uint8)}
    base = [Patch(np.ones((1, 1), dtype=np.uint8))] * 12
    text = H.dumps_spec(HierarchySpec(base, [Level([Arrangement.dense(np.array([[10, 1], [12, 3]]))])]))
    assert H.loads_spec(text).levels[0].arrangements[0].to_grid().dtype == np.uint8
    for ids, dtype in (([[1, 255]], np.uint8), ([[1, 256]], np.uint16), ([[1, 2**40]], np.uint64)):
        assert Arrangement.dense(np.array(ids, dtype=np.int64)).to_grid().dtype == dtype


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_dense_arrangement_leaves_the_callers_array_writable(dtype):
    a = np.array([[1, 2]], dtype=dtype)
    arr = Arrangement.dense(a)
    a[0, 0] = 3
    assert arr.to_grid().tolist() == [[1, 2]] and not arr.to_grid().flags.writeable


# ----------------------------------------------------------------------
# malformed input
# ----------------------------------------------------------------------

VALID = """DHS 1
kind custom
anchored 0
level 1 patches 2
PATCH 2 2 0 0
11
10
PATCH 2 2 0 0
11
11
level 2 patches 2
anchor 0 0
arrangement 3 3
1 2 1
2 1 2
1 1 1
arrangement 3 3 altbottom 1 3 1 2
"""

# (what is wrong, the line replaced, its replacement)
MALFORMED = [
    ("truncated level header", "level 2 patches 2", "level 2"),
    ("misspelt level header", "level 2 patches 2", "level 2 patchez 2"),
    ("misspelt altbottom", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 3 3 altbotom 1 3 1 2"),
    ("bare level 1 header", "level 1 patches 2", "level 1"),
    ("bare altbottom line", "arrangement 3 3 altbottom 1 3 1 2", "altbottom"),
    ("altbottom without fields", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 3 3 altbottom"),
    ("altbottom short of fields", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 3 3 altbottom 1 3 1"),
    ("truncated arrangement header", "arrangement 3 3", "arrangement 3"),
    ("truncated anchor", "anchor 0 0", "anchor 1"),
    ("bare kind", "kind custom", "kind"),
    ("bare anchored", "anchored 0", "anchored"),
    ("bare meta", "anchored 0", "meta"),
    ("non-integer field", "anchor 0 0", "anchor 0 x"),
    ("child id out of range", "1 2 1", "1 7 1"),
    ("child id zero", "1 2 1", "0 2 1"),
    ("altbottom id out of range", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 3 3 altbottom 1 3 1 3"),
    ("level numbered 3 after 1", "level 2 patches 2", "level 3 patches 2"),
    ("level 1 twice", "level 2 patches 2", "level 1 patches 2"),
    ("more arrangements than patches", "level 2 patches 2", "level 2 patches 1"),
    ("fewer arrangements than patches", "level 2 patches 2", "level 2 patches 3"),
    ("fewer base patches than the count", "level 1 patches 2", "level 1 patches 3"),
    ("more base patches than the count", "level 1 patches 2", "level 1 patches 1"),
    ("zero patches", "level 1 patches 2", "level 1 patches 0"),
    ("short body row", "1 2 1", "1 2"),
    ("long body row", "1 2 1", "1 2 1 1"),
    ("tab separator", "1 2 1", "1\t2 1"),
    ("double space", "1 2 1", "1  2 1"),
    ("trailing space", "1 2 1", "1 2 1 "),
    ("leading space", "1 2 1", " 1 2 1"),
    ("negative id", "1 2 1", "-1 2 1"),
    ("letter in body", "1 2 1", "1 b 1"),
    ("id far too long", "1 2 1", "1 2 " + "9" * 30),
    ("non-square arrangement", "arrangement 3 3", "arrangement 3 2"),
    ("huge arrangement", "arrangement 3 3", "arrangement 3 99999999999"),
    ("empty arrangement", "arrangement 3 3", "arrangement 0 0"),
    ("altbottom dimensions disagree", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 4 4 altbottom 1 3 1 2"),
    ("altbottom even blocks", "arrangement 3 3 altbottom 1 3 1 2", "arrangement 2 2 altbottom 1 2 1 2"),
    ("anchor outside the grid", "anchor 0 0", "anchor 5 0"),
    ("n1 with a field", "anchor 0 0", "n1 1"),
    ("unknown line", "anchor 0 0", "frobnicate"),
    ("bad patch header", "PATCH 2 2 0 0", "PATCH 2 x 0 0"),
    ("missing DHS header", "DHS 1", "DHS 2"),
]


VALID_BANDS = """DHS 1
level 1 patches 2
PATCH 2 2 0 0
11
10
PATCH 2 2 0 0
11
11
level 2 patches 2
anchor 0 0
arrangement 6 6 bands 2
band 2 pieces 2
2 1 1 2 1
1 2 2
band 4 pieces 1
1 1 6
arrangement 6 6 altbottom 2 3 1 2
"""

# (what is wrong, the line replaced, its replacement) in VALID_BANDS
MALFORMED_BANDS = [
    ("multiplicity zero", "band 2 pieces 2", "band 0 pieces 2"),
    ("negative multiplicity", "band 2 pieces 2", "band -2 pieces 2"),
    ("multiplicities short of the rows", "band 4 pieces 1", "band 3 pieces 1"),
    ("multiplicities past the rows", "band 4 pieces 1", "band 5 pieces 1"),
    ("header rows past the multiplicities", "arrangement 6 6 bands 2", "arrangement 7 6 bands 2"),
    ("runs short of the columns", "1 1 6", "1 1 5"),
    ("runs past the columns", "1 2 2", "1 2 3"),
    ("repetitions past the columns", "2 1 1 2 1", "3 1 1 2 1"),
    ("zero repetitions", "1 2 2", "0 2 2"),
    ("zero run length", "1 2 2", "1 2 2 1 0"),
    ("piece without runs", "1 2 2", "2"),
    ("child id out of range", "1 1 6", "1 3 6"),
    ("child id zero", "1 1 6", "1 0 6"),
    ("run missing its length", "2 1 1 2 1", "2 1 1 2"),
    ("extra field in a piece", "1 1 6", "1 1 6 7"),
    ("band missing its piece count", "band 4 pieces 1", "band 4 pieces"),
    ("extra field in a band", "band 4 pieces 1", "band 4 pieces 1 1"),
    ("bands header missing its count", "arrangement 6 6 bands 2", "arrangement 6 6 bands"),
    ("extra field in the bands header", "arrangement 6 6 bands 2", "arrangement 6 6 bands 2 2"),
    ("more bands than written", "arrangement 6 6 bands 2", "arrangement 6 6 bands 3"),
    ("fewer bands than written", "arrangement 6 6 bands 2", "arrangement 6 6 bands 1"),
    ("more pieces than written", "band 2 pieces 2", "band 2 pieces 3"),
    ("non-integer run", "1 1 6", "1 x 6"),
]


def _replace(old: str, new: str, text: str = VALID) -> str:
    lines = text.split("\n")
    return "\n".join(new if ln == old else ln for ln in lines)


def test_valid_fixture_loads():
    spec = H.loads_spec(VALID)
    # base patches of 3 and 4 points: six and three of them in the dense
    # arrangement, eight main and one alternate in the alternating one
    assert spec.num_levels == 2 and spec.popcounts(2) == [6 * 3 + 3 * 4, 8 * 3 + 1 * 4]


def test_valid_band_fixture_loads():
    spec = H.loads_spec(VALID_BANDS)
    # rows 1 2 1 2 2 2 twice under four rows of 1s; patches of 3 and 4 points
    assert spec.popcounts(2) == [28 * 3 + 8 * 4, 32 * 3 + 4 * 4]
    assert spec.levels[0].arrangements[0].to_grid()[:2].tolist() == [[1, 2, 1, 2, 2, 2]] * 2


@pytest.mark.parametrize("why,old,new", MALFORMED_BANDS, ids=[m[0] for m in MALFORMED_BANDS])
def test_malformed_band_spelling_is_a_format_error(tmp_path, capsys, why, old, new):
    assert old in VALID_BANDS.split("\n")
    _assert_format_error(_replace(old, new, VALID_BANDS), tmp_path, capsys)


@pytest.mark.parametrize("why,old,new", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_dhs_is_a_format_error(tmp_path, capsys, why, old, new):
    assert old in VALID.split("\n")
    _assert_format_error(_replace(old, new), tmp_path, capsys)


def _assert_format_error(text, tmp_path, capsys):
    """``text`` fails to load, and ``delone stats`` on it exits 2 with one
    error line."""
    with pytest.raises(PatchFormatError):
        H.loads_spec(text)
    path = tmp_path / "bad.dhs"
    path.write_text(text)
    assert cli.main(["stats", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_range_child_id_is_named():
    # one child, and an arrangement naming id 7
    text = "DHS 1\nlevel 1 patches 1\nPATCH 1 1 0 0\n1\nlevel 2 patches 1\narrangement 2 2\n1 1\n1 7\n"
    with pytest.raises(PatchFormatError, match="child id 7 outside 1..1"):
        H.loads_spec(text)


@pytest.mark.parametrize("arrangement, ones", [
    ("arrangement 2 2\n1 2\n2 1", "arrangement 2 2\n1 1\n1 1"),
    ("arrangement 3 3 altbottom 1 3 1 2", "arrangement 3 3\n1 1 1\n1 1 1\n1 1 1"),
    ("arrangement 2 2 bands 1\nband 2 pieces 1\n1 1 1 2 1", "arrangement 2 2\n1 1\n1 1"),
], ids=["dense", "altbottom", "bands"])
def test_a_shared_arrangement_is_checked_at_each_level(arrangement, ones):
    """The same arrangement text at levels 2 and 4 loads as one object, but
    at level 4, over the one patch of level 3, its id 2 is still refused."""
    head = "DHS 1\nlevel 1 patches 2\nPATCH 1 1 0 0\n1\nPATCH 1 1 0 0\n0\n"
    good = f"{head}level 2 patches 2\n{arrangement}\n{arrangement}\nlevel 3 patches 1\n{ones}\n"
    spec = H.loads_spec(good)
    first, second = spec.levels[0].arrangements
    assert first is second
    with pytest.raises(PatchFormatError, match=r"^level 4 arrangement 1: child id 2 outside 1\.\.1$"):
        H.loads_spec(f"{good}level 4 patches 1\n{arrangement}\n")


def test_empty_id_is_a_body_error():
    # "12  1" has the separators and the byte count of a valid row of three
    with pytest.raises(PatchFormatError, match="not 3 rows of 3 ids"):
        H.loads_spec(_replace("1 2 1", "12  1"))


# every prefix of the fixture's lines but the first ten, a valid one-level
# descriptor, and the whole
@pytest.mark.parametrize("cut", [c for c in range(1, 17) if c != 10])
def test_truncated_dhs_is_a_format_error(cut):
    with pytest.raises(PatchFormatError):
        H.loads_spec("\n".join(VALID.split("\n")[:cut]) + "\n")


_GARBAGE = st.sampled_from(["", "x", "-1", "0", "3", "10", "1 1", "\t", "  ", "level", "arrangement",
                            "altbottom", "PATCH", "99999999999999999999"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_dhs_loads_or_is_a_format_error(data):
    """Random edits of a valid descriptor either load or raise
    PatchFormatError, and ``delone stats`` exits 0 or 2 accordingly."""
    _check_mutation(data, VALID, _GARBAGE)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_band_spelling_loads_or_is_a_format_error(data):
    _check_mutation(data, VALID_BANDS, st.one_of(_GARBAGE, st.sampled_from(["band", "bands", "pieces"])))


def _check_mutation(data, valid: str, garbage) -> None:
    lines = valid.split("\n")[:-1]
    edit = data.draw(st.sampled_from(["cut", "drop", "dup", "token"]))
    i = data.draw(st.integers(0, len(lines) - 1))
    if edit == "cut":
        text = valid[: data.draw(st.integers(0, len(valid)))]
    else:
        if edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        else:
            toks = lines[i].split(" ")
            j = data.draw(st.integers(0, len(toks) - 1))
            toks[j] = data.draw(garbage)
            lines[i] = " ".join(toks)
        text = "\n".join(lines) + "\n"
    try:
        H.loads_spec(text)
        want = 0
    except PatchFormatError:
        want = 2
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.dhs"
        path.write_text(text)
        assert cli.main(["stats", "--spec", str(path)]) == want


# ----------------------------------------------------------------------
# the block reader against the whole-text loader
# ----------------------------------------------------------------------

# a body of repeated rows, the same arrangement twice at level 2, and a
# band spelling
REPEATS = """DHS 1
level 1 patches 2
PATCH 1 1 0 0
1
PATCH 1 1 0 0
0
level 2 patches 3
arrangement 4 4
1 2 1 2
1 2 1 2
1 2 1 2
2 2 2 2
arrangement 4 4
1 2 1 2
1 2 1 2
1 2 1 2
2 2 2 2
arrangement 4 4 bands 2
band 2 pieces 1
1 1 2 2 2
band 2 pieces 1
1 2 4
level 3 patches 1
arrangement 3 3
1 1 1
3 3 3
3 3 3
"""

_BREAKS = ["\n", "\n", "\r\n", "\r", "\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " "]
_LINE_TEXT = st.lists(st.one_of(st.sampled_from(["1 2", "1 2", "ab", " ", "\t", "é", "\xa0", *_BREAKS]),
                                st.text(max_size=3)), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_LINE_TEXT, st.integers(1, 64))
def test_block_lines_are_the_non_blank_splitlines(text, block):
    got = H._lines(text[i : i + block] for i in range(0, len(text), block))
    assert got == spec_lines_oracle(text)
    assert all(a is b for a, b in zip(got, got[1:]) if a == b)


@st.composite
def _runs_text(draw):
    """A text of runs of 1-200 copies of one line, each copy ended by one
    break spelling, among distinct and blank lines; and a block size of
    1-64 or about the repeated line's length."""
    line = draw(st.sampled_from(["1 2", "1 2 1 2", "ab", " 1", "é 1", "\xa0x"]) | st.text(max_size=6))
    parts = draw(st.lists(st.one_of(
        st.builds(lambda n, end: (line + end) * n, st.integers(1, 200), st.sampled_from(_BREAKS)),
        st.sampled_from(["", " ", "\t", "1 2", "ab", line, line + "x", *_BREAKS]),
        st.text(max_size=3)), min_size=1, max_size=8))
    block = draw(st.integers(1, 64) | st.integers(-1, 1).map(lambda d: max(1, len(line) + 1 + d)))
    return "".join(parts), block


@settings(max_examples=300, deadline=None)
@given(_runs_text())
def test_runs_of_a_repeated_line_load_as_the_non_blank_splitlines(case):
    """The lines ``loads_spec`` cuts, its ``_BLOCK`` patched, are the
    oracle's, and each run of equal lines is one object."""
    text, block = case
    with mock.patch.object(H, "_BLOCK", block), mock.patch.object(H, "_parse_spec", lambda lines: lines):
        got = H.loads_spec(text)
    assert got == spec_lines_oracle(text)
    assert all(a is b for a, b in zip(got, got[1:]) if a == b)


_IDS = ["0", "00", "1", "01", "001", "2", "02", "10", "7"]


@given(st.lists(st.sampled_from(_IDS), min_size=1, max_size=60))
def test_a_row_is_cut_into_the_runs_of_its_ints(ids):
    assert H._runs(ids) == row_runs_oracle(ids)
    assert H._runs([int(v) for v in ids]) == row_runs_oracle(ids)


@pytest.mark.parametrize("ids", [["7"], ["1"] * 1024, ["1", "2"] * 512, ["1", "01", "001", "2", "02"],
                                 ["0", "00", "1"], ["2", "1", "1", "2"]],
                         ids=["one-id", "all-equal", "alternating", "leading-zeros", "zeros", "inner-run"])
def test_row_runs_of_the_edge_cases(ids):
    assert H._runs(ids) == row_runs_oracle(ids)


# ids, and tokens a digit test or ``int`` could take for one: other digits,
# signs, underscores, blanks, and none at all (two spaces in a row)
_ROW_TOKENS = st.one_of(st.sampled_from(_IDS), st.text(
    st.sampled_from(list("0123_+-a\t\x0b ") + ["\u0663", "\u00b2", "\uff11"]), max_size=2))


@settings(max_examples=300)
@given(st.lists(_ROW_TOKENS, min_size=1, max_size=6), st.sampled_from([0, 0, 0, 1, -1]))
def test_a_dense_row_loads_as_its_regular_expression_reads_it(tokens, off):
    """A dense body line loads when the regular expression of the format
    matches it and it holds ``cols`` ids, into the runs of those ids, and
    is refused otherwise."""
    text, cols = " ".join(tokens), max(1, len(tokens) + off)
    want = dense_row_oracle(text, cols)
    try:
        arr, _ = H._parse_arrangement([f"arrangement 1 {cols}", text], 0)
    except PatchFormatError:
        assert want is None
    else:
        assert want is not None and arr.bands == ((H.Edge(((row_runs_oracle(want), 1),)), 1),)


def _arrangement_ids(spec: HierarchySpec) -> list[int]:
    """For each arrangement of ``spec``, level by level, the index of the
    first arrangement that is the same object."""
    arrs = [a for lv in spec.levels for a in lv.arrangements]
    return [next(j for j, b in enumerate(arrs) if b is a) for a in arrs]


def _outcome(load, *args):
    try:
        spec = load(*args)
    except PatchFormatError as exc:
        return "error", str(exc)
    return H.dumps_spec(spec), _arrangement_ids(spec)


@st.composite
def _descriptor_texts(draw):
    """A valid descriptor with some of its lines dropped, repeated or
    edited, blank lines put in, and its line breaks spelt "\\n", "\\r\\n" or
    "\\x0c", some inside the lines."""
    lines = draw(st.sampled_from([REPEATS, VALID, VALID_BANDS])).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "dup", "blank", "token", "break"]))
        if edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "  \t"])))
        elif edit == "token":
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(_GARBAGE)
            lines[i] = " ".join(toks)
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(["\r\n", "\x0c", "\r"])) + lines[i][j:]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\x0c"]), min_size=len(lines), max_size=len(lines)))
    return "".join(ln + end for ln, end in zip(lines, ends))


@settings(max_examples=200, deadline=None)
@given(_descriptor_texts(), st.integers(1, 64))
def test_loads_spec_loads_as_the_whole_text_loader(text, block):
    """The same spec with the same shared arrangements, or the same error."""
    with mock.patch.object(H, "_BLOCK", block):
        assert _outcome(H.loads_spec, text) == _outcome(loads_spec_oracle, text)


@settings(max_examples=100, deadline=None)
@given(_descriptor_texts(), st.integers(1, 64))
def test_read_spec_reads_as_the_whole_text_loader(text, block):
    """A file read in text mode, its "\\r\\n" and "\\r" read as newlines."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.dhs"
        path.write_bytes(text.encode())
        with open(path) as fh:
            want = _outcome(loads_spec_oracle, fh.read())
        with mock.patch.object(H, "_BLOCK", block):
            assert _outcome(H.read_spec, path) == want


def test_repeated_body_rows_load_as_one_string_each():
    lines = H._lines([REPEATS[:60], REPEATS[60:]])
    assert lines == spec_lines_oracle(REPEATS)
    rows = [ln for ln in lines if ln == "1 2 1 2"]
    assert len(rows) == 6 and len({id(r) for r in rows}) == 2


def test_a_dense_rigorous_descriptor_loads_at_the_cost_of_its_distinct_rows(tmp_path):
    """The rigorous choquet depth-2 descriptor (6 MB, three 1024x1024 dense
    bodies of 15 distinct rows) loads with a traced peak under 2 MB, where
    holding its text and every line took over 12 MB."""
    path = tmp_path / "c.dhs"
    assert cli.main(["gen", "--construction", "choquet", "--depth", "2", "--mode", "rigorous",
                     "--out", str(path)]) == 0
    assert path.stat().st_size > 6 * 10**6
    tracemalloc.start()
    try:
        spec = H.read_spec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert H.dumps_spec(spec) == path.read_text()


# ----------------------------------------------------------------------
# plain PBM
# ----------------------------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_pbm_codec_round_trip(h, w, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w))
    p = Patch(np.array(bits, dtype=np.uint8).reshape(h, w))
    assert loads_pbm(dumps_pbm(p)) == p


PBM = "P1\n# two rows\n3 2\n1 0 1\n0 1 1\n"

PBM_MALFORMED = [
    ("empty", ""),
    ("magic only", "P1"),
    ("binary magic", PBM.replace("P1", "P4")),
    ("no height", "P1\n3\n"),
    ("non-integer width", PBM.replace("3 2", "x 2")),
    ("fractional height", PBM.replace("3 2", "3 2.0")),
    ("zero width", "P1\n0 2\n"),
    ("negative height", PBM.replace("3 2", "3 -2")),
    ("bit 2", PBM.replace("0 1 1", "0 2 1")),
    ("letter bit", PBM.replace("0 1 1", "0 x 1")),
    ("short raster", PBM.replace("0 1 1", "0 1")),
    ("long raster", PBM.replace("0 1 1", "0 1 1 0")),
]


def test_valid_pbm_loads():
    want = Patch(np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    assert loads_pbm(PBM) == want
    assert loads_pbm("P1\n3 2\n101\n011\n") == want
    assert loads_pbm("P1 3 2 10 1011") == want


@pytest.mark.parametrize("why,text", PBM_MALFORMED, ids=[m[0] for m in PBM_MALFORMED])
def test_malformed_pbm_is_a_format_error(why, text):
    with pytest.raises(PatchFormatError):
        loads_pbm(text)


@pytest.mark.parametrize("cut", range(len(PBM) - 1))
def test_truncated_pbm_is_a_format_error(cut):
    with pytest.raises(PatchFormatError):
        loads_pbm(PBM[:cut])


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="P1 0123-x#\n\t", max_size=40), st.booleans())
def test_garbage_pbm_loads_or_is_a_format_error(text, magic):
    try:
        p = loads_pbm("P1\n" + text if magic else text)
    except PatchFormatError:
        return
    assert set(np.unique(p.cells)) <= {0, 1}


# ----------------------------------------------------------------------
# .dpf patches, points files and map files
# ----------------------------------------------------------------------

_FIELD = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["x", "1.5", "99999999999999999999"]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_garbage_patch_loads_or_is_a_format_error(data):
    """Random .dpf headers, with and without the full_boundary flag, over
    0/1 bodies either load or raise PatchFormatError."""
    w, h = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    fields = [str(w), str(h), "0", "0"]
    if data.draw(st.booleans()):
        fields[data.draw(st.integers(0, 3))] = data.draw(_FIELD)
    flag = data.draw(st.sampled_from(["", " full_boundary", " full", " full_boundary x"]))
    ones = data.draw(st.booleans())  # an all-ones body satisfies the flag
    lo, hi = (max(0, w - 1), w + 1) if data.draw(st.booleans()) else (w, w)  # ragged rows or not
    rows = [
        "1" * w if ones else data.draw(st.text("01", min_size=lo, max_size=hi))
        for _ in range(data.draw(st.sampled_from([h, h - 1, h + 1])))
    ]
    text = f"PATCH {' '.join(fields)}{flag}\n" + "".join(r + "\n" for r in rows)
    try:
        p = loads_patch(text)
    except PatchFormatError:
        return
    assert (p.width, p.height) == (int(fields[0]), int(fields[1]))
    assert p.full_boundary == bool(flag) and (not flag or p.boundary_full())


def test_patch_with_an_empty_boundary_cell_is_a_format_error():
    with pytest.raises(PatchFormatError, match="full_boundary"):
        loads_patch("PATCH 2 2 0 0 full_boundary\n11\n10\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123 -x#\n\t", max_size=40))
def test_garbage_points_load_or_are_a_format_error(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.txt"
        path.write_text(text)
        try:
            pts = read_points(path)
        except PatchFormatError:
            return
    assert all(len(p) == 2 and all(isinstance(c, int) for c in p) for p in pts)


_MAP_LINE = st.one_of(
    st.tuples(*[st.integers(0, 3)] * 4).map(lambda t: f"{t[0]} {t[1]} -> {t[2]} {t[3]}"),
    st.text(alphabet="012 ->x#", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MAP_LINE, max_size=8))
def test_garbage_map_loads_or_is_a_format_error(lines):
    try:
        f = parse_map("\n".join(lines))
    except PatchFormatError:
        return
    assert f.images and len(set(f.images.values())) == len(f.images)


# ----------------------------------------------------------------------
# inputs that load, in every text format
# ----------------------------------------------------------------------

MATS = "p 4 32\nr 1\nmatrix 3 3\n1 1 1\n30 30 12\n33 33 51\n"
SEQ = ((4, 32), (3, 3), [[[1, 1, 1], [30, 30, 12], [33, 33, 51]]])
IDENTITY = {(0, 0): (0, 0), (1, 0): (1, 0), (2, 0): (2, 0)}


def _from_file(reader):
    def load(tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_text(text.format(dir=tmp_path))
        return reader(path)
    return load


def _seq(seq):
    return seq if isinstance(seq, int) else (seq.p, seq.k, seq.A)


def _simplex(path):
    (path.parent / "mats.txt").write_text(MATS)
    return _seq(read_simplex_spec(path))


def _gen_levels(path):
    out = path.parent / "n.dhs"
    argv = ["gen", "--construction", "nonrect", "--depth", "1", "--params", str(path), "--out", str(out)]
    assert cli.main(argv) == 0
    spec = H.read_spec(out)
    return spec.num_levels, spec.levels[0].arrangements[0].rows


def _dpf(tmp_path, text):
    p = loads_patch(text)
    return str(p), p.origin, p.full_boundary


LOADS = [
    ("map arrow between blanks", lambda _, t: parse_map(t).images,
     "0 0 -> 0 0\n1 0 -> 1 0\n2 0 -> 2 0\n", IDENTITY),
    ("map arrow without blanks", lambda _, t: parse_map(t).images,
     "0 0->0 0\n1 0->1 0\n2 0->2 0\n", IDENTITY),
    ("map arrow after a blank", lambda _, t: parse_map(t).images,
     "0 0 ->0 0\n1 0 ->1 0\n2 0-> 2 0\n", IDENTITY),
    ("map tabs and trailing comments", lambda _, t: parse_map(t).images,
     "# identity\n0\t0 -> 0 0  # origin\n\n1 0 -> 1 0\n2 0 -> 2 0 #\n", IDENTITY),
    ("points tab separated", _from_file(read_points), "1\t2\n-3 4\n", [(1, 2), (-3, 4)]),
    ("points trailing comments", _from_file(read_points), "# demo\n1 2  # first\n\n  -3   4\n",
     [(1, 2), (-3, 4)]),
    ("dpf", _dpf, "PATCH 2 1 3 -4\n10\n", ("10", (3, -4), False)),
    ("dpf full_boundary", _dpf, "PATCH 2 2 0 0 full_boundary\n11\n11\n", ("11\n11", (0, 0), True)),
    ("dpf blank lines and extra blanks", _dpf, "\n PATCH  2 1 3 -4 \n\n10\n", ("10", (3, -4), False)),
    ("pbm bits run together", lambda _, t: str(loads_pbm(t)), "P1\n3 2\n101\n011\n", "101\n011"),
    ("pbm comments", lambda _, t: str(loads_pbm(t)), "P1 # magic\n3 2 # size\n1 0 1\n0 1 1\n", "101\n011"),
    ("simplex spec extreme points", _from_file(_simplex), "extreme_points 3  # e\n", 3),
    ("simplex spec relative matrices path", _from_file(_simplex), "# user\nmatrices mats.txt\n", SEQ),
    ("simplex spec absolute matrices path", _from_file(_simplex), "matrices {dir}/mats.txt\n", SEQ),
    ("matrices comments and tabs", _from_file(lambda path: _seq(read_matrices_file(path))),
     "# scales\np 4\t32  # p\nr 1\n\nmatrix 3 3 # A\n1 1 1\n30 30 12\n33 33 51\n", SEQ),
    ("gen params blanks and comments", _from_file(_gen_levels),
     "# a small build\ndepth = 2  # levels\nmode=toy\nN = 3\nm=1\nell = 1\n", (3, 7)),
]


@pytest.mark.parametrize("load,text,want", [c[1:] for c in LOADS], ids=[c[0] for c in LOADS])
def test_inputs_that_load_keep_loading(tmp_path, load, text, want):
    assert load(tmp_path, text) == want
