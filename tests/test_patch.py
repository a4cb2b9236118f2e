import tempfile
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delone import patch
from delone.nonrect import starting_patches
from tests_oracles import patch_text_oracle, points_text_oracle


def test_starting_corner_densities():
    sparse, dense = starting_patches()
    assert patch.corner_density(dense, 4) == F(16, 16)
    assert patch.corner_density(sparse, 4) == F(10, 16)


def test_corner_density_full_patch_is_one():
    p = patch.full_patch(7, 7)
    for m in (1, 3, 7):
        assert patch.corner_density(p, m) == 1


def test_corner_density_rejects_oversized_corner():
    p = patch.full_patch(3, 3)
    with pytest.raises(ValueError, match="corner exceeds support"):
        patch.corner_density(p, 4)


def test_even_column_property_examples():
    sparse, dense = starting_patches()
    assert patch.has_even_column_property(dense)
    assert patch.has_even_column_property(sparse)
    cells = np.ones((3, 3), dtype=np.uint8)
    cells[0, 0] = 0
    assert not patch.has_even_column_property(patch.Patch(cells))


def test_even_column_property_uses_absolute_origin():
    # occupied columns at local x = 1 only; absolute parity decides
    cells = np.zeros((2, 2), dtype=np.uint8)
    cells[:, 1] = 1
    assert patch.has_even_column_property(patch.Patch(cells, origin=(1, 0)))
    assert not patch.has_even_column_property(patch.Patch(cells, origin=(0, 0)))


def test_from_rows_top_down():
    p = patch.from_rows(["10", "01"])
    assert p.get(0, 1) and p.get(1, 0)
    assert not p.get(0, 0) and not p.get(1, 1)


def test_full_boundary_flag_validated():
    with pytest.raises(ValueError, match="boundary"):
        patch.from_rows(["10", "11"], full_boundary=True)


def test_closed_and_corner_are_inverse():
    sparse, _ = starting_patches()
    corner = sparse.corner()
    assert corner.width == 4 and corner.popcount() == 10
    assert corner.closed().same_content(sparse)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 255))
def test_corner_density_of_block_grid_is_weighted_average(rows, cols, seedbits):
    # tiling equal-size blocks: density of the union = average of block densities
    rng = np.random.default_rng(seedbits)
    blocks = [
        [rng.integers(0, 2, size=(3, 3)).astype(np.uint8) for _ in range(cols)]
        for _ in range(rows)
    ]
    grid = np.block(blocks[::-1])  # np.block stacks top-down
    whole = patch.Patch(grid)
    total = sum(int(b.sum()) for row in blocks for b in row)
    assert whole.density() == F(total, 9 * rows * cols)
    avg = sum(F(int(b.sum()), 9) for row in blocks for b in row) / (rows * cols)
    assert whole.density() == avg


def test_dpf_round_trip(tmp_path):
    sparse, _ = starting_patches()
    path = tmp_path / "q.dpf"
    patch.write_patch(path, sparse)
    back = patch.read_patch(path)
    assert back == sparse and back.full_boundary


def test_dpf_body_orientation():
    p = patch.loads_patch("PATCH 2 2 0 0\n10\n01\n")
    assert p.get(0, 1) and p.get(1, 0)


def test_points_round_trip(tmp_path):
    sparse, _ = starting_patches()
    path = tmp_path / "pts.txt"
    pts = list(sparse.points())
    patch.write_points(path, sparse)
    path.write_text("# demo\n" + path.read_text())
    assert patch.read_points(path) == pts
    assert len(pts) == sparse.popcount()


@pytest.mark.parametrize("line", ["1 x", "1", "1 2 3"])
def test_read_points_rejects_bad_line(tmp_path, line):
    path = tmp_path / "pts.txt"
    path.write_text(f"0 0\n{line}\n")
    with pytest.raises(patch.PatchFormatError, match=repr(line)):
        patch.read_points(path)


def test_pbm_round_trip():
    sparse, _ = starting_patches()
    text = patch.dumps_pbm(sparse)
    assert text.startswith("P1\n5 5\n")
    assert patch.loads_pbm(text).same_content(sparse)
    assert sum(int(c) for c in text.split("\n", 2)[2].split()) == 19


def test_subpatch_and_translation():
    sparse, _ = starting_patches()
    sub = sparse.subpatch(0, 0, 2, 2)
    assert sub.popcount() == 3  # bottom row pair plus (0,1)
    moved = sparse.translated(4, 6)
    assert moved.origin == (4, 6)
    assert moved.same_content(sparse)


@st.composite
def patches(draw):
    """Patches of random shape (1 x n and n x 1 included): random bits,
    all zeros or all ones, at a random origin."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["bits", "zeros", "ones"]))
    if kind == "bits":
        bits = draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w))
        cells = np.array(bits, dtype=np.uint8).reshape(h, w)
    else:
        cells = np.full((h, w), kind == "ones", dtype=np.uint8)
    origin = (draw(st.integers(-50, 50)), draw(st.integers(-50, 50)))
    return patch.Patch(cells, origin, full_boundary=kind == "ones")


def _write_pbm(path, p):
    patch.write_cells(path, "pbm", [p.cells], p.width, p.height)


@given(patches())
def test_text_writers_match_the_join_formulas(p):
    dpf, pbm = patch_text_oracle(p, "dpf"), patch_text_oracle(p, "pbm")
    assert str(p) == dpf.split("\n", 1)[1][:-1]
    assert patch.dumps_pbm(p) == pbm
    assert patch.dumps_patch(p) == dpf
    assert patch.loads_patch(patch.dumps_patch(p)) == p
    assert patch.loads_pbm(patch.dumps_pbm(p)).same_content(p)
    with tempfile.TemporaryDirectory() as d:
        for write, dumps in ((patch.write_patch, patch.dumps_patch), (_write_pbm, patch.dumps_pbm)):
            path = Path(d) / "out"
            write(path, p)
            assert path.read_bytes() == dumps(p).encode()


@given(patches(), st.sampled_from([0, 2**63, -(2**64) - 7]), st.sampled_from([0, 2**63 + 1, -(2**70)]))
def test_points_writer_matches_the_point_loop(p, dx, dy):
    """The points text, a row of cells a join, is the one-line-a-point
    loop's, byte for byte, also at origins past int64."""
    p = p.translated(dx, dy)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.points"
        patch.write_points(path, p)
        assert path.read_bytes() == points_text_oracle(p).encode()
        assert patch.read_points(path) == list(p.points())


@settings(max_examples=200, deadline=None)
@given(patches(), st.data())
def test_writers_across_strips_match_the_cell_oracle(p, data):
    """With strips of one or two rows every patch taller than two rows is
    written in many strips through one reused buffer, the last one perhaps
    shorter; the bytes are the oracle's, cell by cell."""
    strip = data.draw(st.integers(1, 2 * p.width))
    with tempfile.TemporaryDirectory() as d, mock.patch.object(patch, "_STRIP", strip):
        for write, fmt in ((_write_pbm, "pbm"), (patch.write_patch, "dpf")):
            path = Path(d) / f"out.{fmt}"
            write(path, p)
            assert path.read_bytes() == patch_text_oracle(p, fmt).encode()
