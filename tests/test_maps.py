import random
from fractions import Fraction as F

import pytest
from delone import maps
from tests_oracles import extension_certificate_oracle
from delone.maps import CandidateMap, MapInvariantError
from delone.patch import PatchFormatError
from delone.sampling import random_bilip_map


def test_hat_extension_identity_on_domain_and_formula_off():
    f = CandidateMap((0, 0, 2, 0), {(0, 0): (3, 7), (2, 0): (4, 2)})
    fh = maps.hat_extend(f)
    assert fh((0, 0)) == (3, 7)
    assert fh((2, 0)) == (4, 2)
    assert fh((1, 0)) == (F(7, 2), 2)


def test_hat_extension_needs_right_neighbour():
    f = CandidateMap((0, 0, 3, 0), {(0, 0): (0, 0), (2, 0): (1, 0)})
    with pytest.raises(MapInvariantError, match="right neighbour"):
        maps.hat_extend(f)  # (3, 0) has no neighbour inside the window


def test_domain_must_cover_even_columns():
    with pytest.raises(MapInvariantError, match="even x"):
        CandidateMap((0, 0, 2, 0), {(0, 0): (0, 0)})


def test_injectivity_enforced():
    with pytest.raises(MapInvariantError, match="injective"):
        CandidateMap((0, 0, 2, 0), {(0, 0): (0, 0), (1, 0): (0, 0), (2, 0): (1, 1)})


def test_distortion_identity():
    f = maps.identity_map((0, 0, 4, 2))
    rep = maps.distortion(f, maps.all_pairs(sorted(f.domain))[:40])
    assert rep.max_expansion_sq == 1 and rep.min_expansion_sq == 1
    assert rep.bilip_sq == 1


def test_distortion_axis_scaling():
    pts = [(0, 0), (1, 0), (0, 1)]
    f = {p: (2 * p[0], p[1]) for p in pts}
    rep = maps.distortion(f, [((0, 0), (1, 0)), ((0, 0), (0, 1))])
    assert rep.max_expansion_sq == 4
    assert rep.min_expansion_sq == 1
    assert rep.bilip_sq == 4  # constant 2


def test_distortion_empty_pairs_rejected():
    with pytest.raises(ValueError):
        maps.distortion(maps.identity_map((0, 0, 2, 0)), [])


def _distortion_oracle(images, pairs):
    hi = lo = None
    for p, q in pairs:
        num = (images[p][0] - images[q][0]) ** 2 + (images[p][1] - images[q][1]) ** 2
        den = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        r = F(num, den)
        hi = r if hi is None else max(hi, r)
        lo = r if lo is None else min(lo, r)
    return hi, lo


def test_distortion_matches_double_loop_oracle():
    rng = random.Random(11)
    for _ in range(12):
        f = random_bilip_map(rng, rng.randint(3, 7), rng.randint(3, 7))
        pts = sorted(f.domain)[:6]
        pairs = maps.all_pairs(pts)
        rep = maps.distortion(f, pairs)
        hi, lo = _distortion_oracle(f.images, pairs)
        assert rep.max_expansion_sq == hi and rep.min_expansion_sq == lo


def test_distortion_symmetric_in_pairs():
    f = maps.identity_map((0, 0, 3, 1))
    a = maps.distortion(f, [((0, 0), (3, 1))])
    b = maps.distortion(f, [((3, 1), (0, 0))])
    assert a.max_expansion_sq == b.max_expansion_sq


def test_translation_invariance():
    rng = random.Random(4)
    f = random_bilip_map(rng, 5, 4)
    pairs = maps.all_pairs(sorted(f.domain))
    rep = maps.distortion(f, pairs)
    g = f.translated((6, -3), (2, 9))
    moved = [(((p[0] + 6, p[1] - 3)), ((q[0] + 6, q[1] - 3))) for p, q in pairs]
    rep2 = maps.distortion(g, moved)
    assert (rep.max_expansion_sq, rep.min_expansion_sq) == (
        rep2.max_expansion_sq,
        rep2.min_expansion_sq,
    )


def test_exhaustive_distortion_matches_loop():
    rng = random.Random(5)
    f = random_bilip_map(rng, 6, 5)
    pts = sorted(f.domain)
    pairs = maps.all_pairs(pts)
    hi, lo = _distortion_oracle(f.images, pairs)
    ehi, elo = maps.exhaustive_distortion_sq(
        pts, [(2 * u, 2 * v) for u, v in (f.images[p] for p in pts)]
    )
    assert (ehi, elo) == (hi, lo)


def test_extension_is_six_l_on_window_pairs():
    # exhaustive over all window pairs for a spread of window sizes
    rng = random.Random(20)
    sizes = [(3, 3), (5, 4), (8, 6), (12, 9), (20, 20)]
    for w, h in sizes:
        f = random_bilip_map(rng, w, h)
        lsq, hsq, ok = maps.extension_certificate(f)
        assert ok, f"{w}x{h}: extension distortion {hsq} > 36 * {lsq}"


def _stretched(f, factor):
    return CandidateMap(f.window, {p: (u * factor, v * factor) for p, (u, v) in f.images.items()})


def test_stretched_two_point_map_is_exact():
    # doubled image differences of 6e9 square past the int64 range
    f = CandidateMap((0, 0, 1, 0), {(0, 0): (0, 0), (1, 0): (3 * 10**9, 0)})
    lsq, hsq, ok = maps.extension_certificate(f)
    assert lsq == hsq == 9 * 10**18 and ok


@pytest.mark.parametrize("seed", range(6))
def test_stretched_two_by_one_maps_match_python_ints(seed):
    f = _stretched(random_bilip_map(random.Random(seed), 2, 1), 3 * 10**9)
    assert maps.extension_certificate(f) == extension_certificate_oracle(f)


@pytest.mark.parametrize("factor", [1, 2**22, 2**23, 2**24, 2**25, 3 * 10**9, 10**30])
def test_extension_certificate_across_the_int64_guard(factor):
    # a 5x3 map moves from int64 to Python ints between 2**23 and 2**24
    f = _stretched(random_bilip_map(random.Random(factor % 97), 5, 3), factor)
    assert maps.extension_certificate(f) == extension_certificate_oracle(f)


def test_delone_params_of_patch():
    from delone.nonrect import starting_patches

    sparse, dense = starting_patches()
    dp = maps.delone_params_of(dense)
    assert dp.separation_sq == 1 and dp.covering_sq == F(1, 2)
    dp2 = maps.delone_params_of(sparse)
    # worst half-integer point sits beside an empty column: distance sqrt(5)/2
    assert dp2.separation_sq == 1 and dp2.covering_sq == F(5, 4)


def test_map_file_round_trip(tmp_path):
    f = maps.identity_map((0, 0, 4, 1))
    path = tmp_path / "f.map"
    maps.write_map(path, f)
    g = maps.read_map(path, window=(0, 0, 4, 1))
    assert g.images == f.images


def test_map_file_rejects_a_repeated_source_point():
    with pytest.raises(PatchFormatError, match="repeated source point in map line: '0 0 -> 5 5'"):
        maps.parse_map("0 0 -> 0 0\n1 0 -> 1 0\n0 0 -> 5 5\n")
