import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from delone import maps
from tests_oracles import dumps_map_oracle, extension_certificate_oracle, map_text_oracle, plain_map_oracle
from delone.hierarchy import CapacityError
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


@pytest.mark.parametrize("factor", [1, 2**22, 2**23, 2**24, 2**25, 3 * 10**9, 10**30, 10**200])
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


@st.composite
def _maps(draw):
    """Injective maps on small windows anywhere in Z^2 (corners past 2^63
    at times), images scaled past 2^63 at times, some with an empty domain."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    x0 = draw(st.integers(-4, 4) | st.sampled_from([2**63, -(2**64) - 1, 10**20 + 1]))
    y0 = draw(st.integers(-4, 4) | st.sampled_from([2**62, -(10**30)]))
    window = (x0, y0, x0 + w - 1, y0 + h - 1)
    pts = [(x, y) for y in range(y0, y0 + h) for x in range(x0, x0 + w) if x % 2 == 0 or draw(st.booleans())]
    pairs = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=len(pts),
                          max_size=len(pts), unique=True))
    scale = draw(st.sampled_from([1, -1, 7, 2**63, -(2**64) - 5, 10**23]))
    return CandidateMap(window, {p: (u * scale, v * scale) for p, (u, v) in zip(pts, pairs)})


@settings(max_examples=200, deadline=None)
@given(_maps())
def test_dumps_map_writes_the_sorted_images(f):
    """The text is formatted from the arrays, read back by ``parse_map``
    (which builds no images dict) and by the dict constructor alike."""
    want = dumps_map_oracle(f)
    assert maps.dumps_map(f) == want
    if want != "\n":
        assert maps.dumps_map(maps.parse_map(want, f.window)) == want


def test_dumps_map_of_a_pooled_size_map():
    f = random_bilip_map(random.Random(1004), 2 * 32 * 4 + 1, 33)
    parsed = maps.parse_map(dumps_map_oracle(f))
    assert maps.dumps_map(parsed) == dumps_map_oracle(f)
    assert "images" not in parsed.__dict__
    for g in (f, _stretched(f, 10**23)):
        assert maps.dumps_map(g) == dumps_map_oracle(g)


def test_map_file_rejects_a_repeated_source_point():
    with pytest.raises(PatchFormatError, match="repeated source point in map line: '0 0 -> 5 5'"):
        maps.parse_map("0 0 -> 0 0\n1 0 -> 1 0\n0 0 -> 5 5\n")


def test_exhaustive_distortion_table_is_charged_to_the_cell_cap(monkeypatch):
    pts = [(x, 0) for x in range(11)]
    monkeypatch.setenv("DELONE_CELL_CAP", str(11 * 11 - 1))
    with pytest.raises(CapacityError, match="pair table requires 121 cells"):
        maps.exhaustive_distortion_sq(pts, [(2 * x, 0) for x, _ in pts])
    assert maps.exhaustive_distortion_sq(pts[:10], [(2 * x, 0) for x, _ in pts[:10]]) == (1, 1)


def test_exhaustive_distortion_names_a_collapsed_pair():
    # a short pair with a large image distance must not hide the collapse
    pts = [(0, 0), (1, 0), (50, 0)]
    with pytest.raises(ValueError, match=r"collapses the pair \(\(0, 0\), \(1, 0\)\)"):
        maps.exhaustive_distortion_sq(pts, [(0, 0), (0, 0), (2, 0)])


def test_plain_map_text_takes_the_whole_text_path():
    plain = "0 0 -> 0 0\n1 0->-5 7\n\t2 0 ->  9 1 \n\n 0 1 -> 100000000000000000000000 3"
    src, img = maps._text_pairs(plain)
    assert src.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1]] and img.dtype == object
    for other in ("# c\n" + plain, plain.replace("9", "+9"), plain + "\r\n", plain + "\n2 0 -> 3 3"):
        assert maps._text_pairs(other) is None


_BLANK = st.sampled_from([" ", "  ", "\t", " \t"])
_ARROW = st.sampled_from(["->", " ->", "-> ", " -> ", "\t->\t", "  ->"])
_EDGE = st.sampled_from(["", "", " ", "\t"])


@st.composite
def _map_texts(draw):
    """A map text and an optional window: injective maps on small windows,
    scaled past 2^63 at times, spelled every way the format allows, some
    with one defect (repeated source, collision, missing even point,
    garbage line)."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    x0, y0 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    window = (x0, y0, x0 + w - 1, y0 + h - 1)
    pts = [(x, y) for y in range(y0, y0 + h) for x in range(x0, x0 + w) if x % 2 == 0 or draw(st.booleans())]
    if not pts:
        pts = [(x0, y0)]
    pairs = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=len(pts),
                          max_size=len(pts), unique=True))
    scale = draw(st.sampled_from([1, 1, -1, 3, 2**63, -(2**64) - 5, 10**23]))
    rows = [[*p, u * scale, v * scale] for p, (u, v) in zip(pts, pairs)]
    defect = draw(st.sampled_from(["none", "none", "repeat", "collide", "drop", "garbage", "spelling"]))
    if defect == "repeat":
        rows.append(list(draw(st.sampled_from(rows))[:2]) + [99 * scale, 98])
    elif defect == "collide" and len(rows) > 1:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[j][2:] = rows[i][2:]
    elif defect == "drop":
        even = [r for r in rows if r[0] % 2 == 0]
        rows.remove(draw(st.sampled_from(even)) if even else rows[0])
    rows = draw(st.permutations(rows))
    lines = [
        f"{draw(_EDGE)}{x}{draw(_BLANK)}{y}{draw(_ARROW)}{u}{draw(_BLANK)}{v}{draw(_EDGE)}"
        + draw(st.sampled_from(["", "", "", "  # note", "#"]))
        for x, y, u, v in rows
    ]
    if defect == "spelling" and lines:
        lines[0] = lines[0].replace("0", "+0", 1).replace("1", "0_1", 1)
    extra = ["", " \t", "# comment"]
    if defect == "garbage":
        extra.append(draw(st.text(alphabet="012 ->x#+_\t", max_size=12)))
    for ln in draw(st.lists(st.sampled_from(extra), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), ln)
    text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    given_window = draw(st.sampled_from([None, None, window, (x0, y0, x0 + w - 2, y0 + h - 1),
                                         (x0 - 1, y0, x0 + w - 1, y0 + h)]))
    return text, given_window


@settings(max_examples=400, deadline=None)
@given(_map_texts())
def test_map_text_loads_as_the_line_oracle_reads_it(case):
    text, window = case
    try:
        got = "map", maps.parse_map(text, window).images
    except PatchFormatError as exc:
        got = "error", str(exc)
    assert got == map_text_oracle(text, window)


_DIGITS = st.sampled_from([1, 9, 18, 19, 24]).flatmap(
    lambda n: st.integers(10 ** (n - 1), 10**n - 1).map(str))  # 1-digit to 24-digit values
_MAP_PIECE = st.one_of(_DIGITS, st.sampled_from(["0", "-", "->", ">", " ", "\t", "\n", "\n", "#", "+", "\r", "é"]))


def _lexed(text):
    """The values of ``maps._text_pairs(text)``, row by row, or None."""
    got = maps._text_pairs(text)
    return None if got is None else [v for row in zip(*(a.tolist() for a in got)) for p in row for v in p]


def _lexed_by_oracle(text):
    values = plain_map_oracle(text)
    if values is None or len({tuple(values[i : i + 2]) for i in range(0, len(values), 4)}) < len(values) // 4:
        return None  # not plain, or a repeated source point
    return values


@settings(max_examples=400, deadline=None)
@given(st.lists(_MAP_PIECE, max_size=30).map("".join))
def test_map_lexer_reads_the_map_alphabet_as_the_oracle_does(text):
    assert _lexed(text) == _lexed_by_oracle(text)


@st.composite
def _plain_map_texts(draw):
    """Lines ``x y -> u v`` with 1- to 24-digit values, optional signs and
    the blanks the format allows, at times with a byte put in or taken out
    (a sign right after a digit, two lines run into one)."""
    value = st.tuples(st.sampled_from(["", "-"]), _DIGITS).map("".join)
    lines = [f"{draw(_EDGE)}{draw(value)}{draw(_BLANK)}{draw(value)}{draw(_ARROW)}{draw(value)}"
             f"{draw(_BLANK)}{draw(value)}{draw(_EDGE)}" if draw(st.integers(0, 4)) else draw(_EDGE)
             for _ in range(draw(st.integers(0, 5)))]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    for edit in draw(st.lists(st.sampled_from(["put", "take"]), max_size=2)):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(_MAP_PIECE) + text[i:] if edit == "put" else text[:i] + text[i + 1 :]
    return text


@settings(max_examples=400, deadline=None)
@given(st.one_of(_plain_map_texts(), _map_texts().map(lambda case: case[0])))
@example("1-2 -> 3 4")  # a sign right after a digit
@example("0 0 -> 1 1 2 2 -> 3 3")  # two lines run into one
@example("0 0 -> 1 1\n2 2\n-> 3 3")  # one line split in two
def test_map_lexer_reads_map_texts_as_the_oracle_does(text):
    assert _lexed(text) == _lexed_by_oracle(text)
