"""Partial lattice maps, their half-step extension, and distortion arithmetic.

A :class:`CandidateMap` is a finite injective map from a subset of a
rectangular window of Z^2 into Z^2.  The subset must contain every window
point with even first coordinate, which guarantees that the extension
:func:`hat_extend` is defined on the whole window: a missing point takes
the value of its right neighbour shifted left by half a step.

Maps live in arrays over their window, indexed ``[y - y0, x - x0]``: a
domain mask and an (H, W, 2) image array.  Extended values live in
(1/2)Z^2 and are stored as integer pairs scaled by two.  Expansion ratios
||f(x)-f(y)|| / ||x-y|| are kept exact by comparing squared quantities in
integer arithmetic: int64 where :func:`_exact` shows that no value can
overflow, Python ints (``dtype=object``) otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .hierarchy import check_cells
from .patch import Patch, PatchFormatError, Point, _data_lines, _fields

Window = tuple[int, int, int, int]  # x0, y0, x1, y1 inclusive


class MapInvariantError(ValueError):
    """Raised when a candidate map violates a structural invariant."""


def window_points(window: Window) -> list[Point]:
    x0, y0, x1, y1 = window
    return [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]


def _exact(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """``arrays`` as they are when all are int64 and ``bound`` caps every
    value the caller forms from them below 2^62; as object arrays of Python
    ints otherwise.  The one place the int64/Python-int choice is made."""
    if bound < 2**62 and all(a.dtype == np.int64 for a in arrays):
        return list(arrays)
    return [a.astype(object) for a in arrays]


def _peak(a: np.ndarray) -> int:
    """The largest |value| in ``a`` as a Python int (0 when ``a`` is empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _int_pairs(values) -> np.ndarray:
    """Integer pairs (a sequence or an array) as an (n, 2) array: int64 while
    a difference of two doubled values stays below 2^62, else Python ints."""
    try:
        if not isinstance(values, np.ndarray):
            values = np.fromiter(itertools.chain.from_iterable(values), dtype=np.int64)
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        a = np.array(values, dtype=object)
    a = a.reshape(-1, 2)
    return _exact(4 * _peak(a), a)[0]


def _repeats(pairs: np.ndarray) -> bool:
    """Whether two rows of the (n, 2) integer array ``pairs`` are equal."""
    if len(pairs) and pairs.dtype == np.int64:
        a, b = (c - c.min() for c in pairs.T)
        w = int(b.max()) + 1
        if int(a.max()) * w < 2**62:
            key = np.sort(a * w + b)  # one sort of a radix key
            return bool((key[1:] == key[:-1]).any())
    return len(set(map(tuple, pairs.tolist()))) < len(pairs)


def _cell(window: Window, p: Point) -> tuple[int, int]:
    """The array index of ``p`` in ``window``; KeyError outside it."""
    x0, y0, x1, y1 = window
    if not (x0 <= p[0] <= x1 and y0 <= p[1] <= y1):
        raise KeyError(p)
    return p[1] - y0, p[0] - x0


def _cells(window: Window, xs: np.ndarray, ys: np.ndarray):
    """(inside, iy, ix): which points (xs, ys) lie in ``window``, and their
    array indices (0 for those outside)."""
    x0, y0, x1, y1 = window
    inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    return inside, np.where(inside, ys - y0, 0), np.where(inside, xs - x0, 0)


class CandidateMap:
    """Injective map from a window subset (with all even columns) into Z^2.

    ``mask[y - y0, x - x0]`` marks the domain and ``image[y - y0, x - x0]``
    holds f(x, y), zero off the domain; both are read-only.  Built from a
    mapping ``{point: image}``, or by :func:`parse_map` from a whole text.
    """

    def __init__(self, window: Window, images: Mapping[Point, Point]):
        images = dict(images)
        self._store(window, _int_pairs(list(images)), _int_pairs(list(images.values())))
        self.__dict__["images"] = images  # fills the cached property below

    @classmethod
    def _from_pairs(cls, window: Window, src: np.ndarray, img: np.ndarray) -> "CandidateMap":
        f = cls.__new__(cls)
        f._store(window, src, img)
        return f

    def _store(self, window: Window, src: np.ndarray, img: np.ndarray) -> None:
        """Check the invariants on distinct source points ``src`` with images
        ``img`` ((n, 2) arrays, in order), then lay both out over the window."""
        x0, y0, x1, y1 = window
        if x0 > x1 or y0 > y1:
            raise MapInvariantError("empty window")
        sx, sy = _exact(max(map(abs, window)), *src.T)  # window offsets may pass int64
        outside = (sx < x0) | (sx > x1) | (sy < y0) | (sy > y1)
        if outside.any():
            x, y = src[np.argmax(outside)].tolist()
            raise MapInvariantError(f"domain point {(x, y)} outside window")
        if _repeats(img):
            raise MapInvariantError("map is not injective")
        if np.count_nonzero(sx % 2 == 0) < (y1 - y0 + 1) * (x1 // 2 - (x0 - 1) // 2):
            have = set(zip(sx.tolist(), sy.tolist()))
            evens = ((x, y) for y in range(y0, y1 + 1) for x in range(x0 + x0 % 2, x1 + 1, 2))
            miss = next(p for p in evens if p not in have)
            raise MapInvariantError(f"window point {miss} has even x but is not in the domain")
        shape = (y1 - y0 + 1, x1 - x0 + 1)
        check_cells(shape[0] * shape[1], "map window")
        iy, ix = (sy - y0).astype(np.int64), (sx - x0).astype(np.int64)
        self.window = window
        self.mask = np.zeros(shape, dtype=bool)
        self.mask[iy, ix] = True
        self.image = np.zeros((*shape, 2), dtype=img.dtype)
        self.image[iy, ix] = img
        self.mask.flags.writeable = self.image.flags.writeable = False

    @functools.cached_property
    def images(self) -> dict[Point, Point]:
        """The map as a dict ``{point: image}`` of Python ints."""
        x0, y0 = self.window[:2]
        iy, ix = np.nonzero(self.mask)
        vals = self.image[iy, ix].tolist()
        return {(x + x0, y + y0): tuple(v) for x, y, v in zip(ix.tolist(), iy.tolist(), vals)}

    @property
    def domain(self) -> set[Point]:
        return set(self.images)

    def __call__(self, p: Point) -> Point:
        c = _cell(self.window, p)
        if not self.mask[c]:
            raise KeyError(p)
        return tuple(self.image[c].tolist())

    def __contains__(self, p: Point) -> bool:
        try:
            return bool(self.mask[_cell(self.window, p)])
        except KeyError:
            return False

    def _at(self, xs: np.ndarray, ys: np.ndarray):
        """(in the domain, image) at the points (xs, ys), integer arrays; the
        image is meaningless where the first is False."""
        inside, iy, ix = _cells(self.window, xs, ys)
        return inside & self.mask[iy, ix], self.image[iy, ix]

    def baseline_vector(self) -> Point:
        """f(2MN, 0) - f(0, 0) for a window [0, 2MN] x [0, M]."""
        x0, y0, x1, _ = self.window
        a, b = self((x0, y0)), self((x1, y0))
        return (b[0] - a[0], b[1] - a[1])

    def translated(self, dd: Point, di: Point) -> "CandidateMap":
        """Translate domain by ``dd`` and every image by ``di``."""
        x0, y0, x1, y1 = self.window
        win = (x0 + dd[0], y0 + dd[1], x1 + dd[0], y1 + dd[1])
        imgs = {
            (x + dd[0], y + dd[1]): (u + di[0], v + di[1])
            for (x, y), (u, v) in self.images.items()
        }
        return CandidateMap(win, imgs)


def identity_map(window: Window) -> CandidateMap:
    return CandidateMap(window, {p: p for p in window_points(window)})


class ExtendedMap:
    """Total map on a window with values in (1/2)Z^2, stored doubled:
    ``doubled[y - y0, x - x0]`` = 2 f^(x, y)."""

    def __init__(self, window: Window, doubled: np.ndarray):
        self.window, self.doubled = window, doubled

    def twice(self, p: Point) -> Point:
        return tuple(self.doubled[_cell(self.window, p)].tolist())

    def __call__(self, p: Point) -> tuple[Fraction, Fraction]:
        u, v = self.twice(p)
        return (Fraction(u, 2), Fraction(v, 2))

    def _at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """2 f^ at the points (xs, ys), integer arrays; KeyError when one
        lies outside the window."""
        inside, iy, ix = _cells(self.window, xs, ys)
        if not inside.all():
            t = np.argmin(inside)
            raise KeyError((int(xs.flat[t]), int(ys.flat[t])))
        return self.doubled[iy, ix]


def hat_extend(f: CandidateMap) -> ExtendedMap:
    """Extend ``f`` to its whole window.

    On the domain the extension agrees with ``f``; elsewhere it takes the
    value at the right neighbour minus (1/2, 0).  The right neighbour must
    belong to the domain (it does whenever the missing point has odd x and
    its neighbour is still inside the window).  One shift of the doubled
    image array, exact because :func:`_int_pairs` left room for doubling.
    """
    right = np.zeros_like(f.mask)
    right[:, :-1] = f.mask[:, 1:]
    stuck = ~f.mask & ~right
    if stuck.any():
        y, x = np.argwhere(stuck)[0].tolist()
        p = (x + f.window[0], y + f.window[1])
        raise MapInvariantError(f"cannot extend at {p}: right neighbour {(p[0] + 1, p[1])} not in the domain")
    twice = 2 * f.image
    shifted = np.zeros_like(twice)
    shifted[:, :-1] = twice[:, 1:]
    shifted[..., 0] -= 1
    return ExtendedMap(f.window, np.where(f.mask[..., None], twice, shifted))


# ----------------------------------------------------------------------
# distortion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    """Two-sided expansion bounds over a pair set, exact in squared form."""

    max_expansion_sq: Fraction
    min_expansion_sq: Fraction
    max_witness: tuple[Point, Point]
    min_witness: tuple[Point, Point]

    @property
    def bilip_sq(self) -> Fraction:
        """Square of max(max_expansion, 1/min_expansion); always >= 1."""
        return max(self.max_expansion_sq, 1 / self.min_expansion_sq)

    @property
    def max_expansion(self) -> float:
        return float(self.max_expansion_sq) ** 0.5

    @property
    def min_expansion(self) -> float:
        return float(self.min_expansion_sq) ** 0.5


def _twice_value(f, p: Point) -> Point:
    if isinstance(f, ExtendedMap):
        return f.twice(p)
    u, v = f(p) if isinstance(f, CandidateMap) else f[p]
    return (2 * u, 2 * v)


def distortion(f, pairs: Sequence[tuple[Point, Point]]) -> DistortionReport:
    """Exact max/min expansion of ``f`` over the given point pairs.

    ``f`` may be a CandidateMap, an ExtendedMap, or a plain mapping with
    integer values.  Ratios are squared rationals; the report is symmetric
    in each pair and invariant under translating domain and image.
    """
    if not pairs:
        raise ValueError("empty pair list")
    if isinstance(f, CandidateMap):
        f = f.images  # one dict for many lookups
    best_max = None
    best_min = None
    wmax = wmin = None
    for (p, q) in pairs:
        if p == q:
            raise ValueError(f"degenerate pair {(p, q)}")
        dsrc = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        fu, fv = _twice_value(f, p)
        gu, gv = _twice_value(f, q)
        dimg4 = (fu - gu) ** 2 + (fv - gv) ** 2  # 4 * squared image distance
        r = Fraction(dimg4, 4 * dsrc)
        if best_max is None or r > best_max:
            best_max, wmax = r, (p, q)
        if best_min is None or r < best_min:
            best_min, wmin = r, (p, q)
    if best_min == 0:
        raise ValueError(f"map collapses the pair {wmin}")
    return DistortionReport(best_max, best_min, wmax, wmin)


def all_pairs(points: Sequence[Point]) -> list[tuple[Point, Point]]:
    return list(itertools.combinations(points, 2))


def _argmax_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """Flat index of the exact maximum of num/den, taken entrywise.

    Inputs are int64 arrays whose cross products num[i] * den[j] stay
    below 2^62, or object arrays of Python ints.
    """
    num, den = num.ravel(), den.ravel()
    # the first guess: a float ratio, or on Python ints, whose ratios may
    # pass the float range, the integer floor of 2^64 times the ratio
    idx = int(np.argmax((num << 64) // den if num.dtype == object else num / den))
    while True:
        bad = np.flatnonzero(num * den[idx] > num[idx] * den)
        if bad.size == 0:
            return idx
        idx = int(bad[0])


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The n x n table of squared distances between the points (x, y)."""
    dx, dy = x[:, None] - x, y[:, None] - y
    return dx * dx + dy * dy


def exhaustive_distortion_sq(points, twice_values):
    """(max_expansion_sq, min_expansion_sq) over ALL pairs, exact.

    ``points`` are lattice points and ``twice_values`` their doubled
    images, as sequences of pairs or (n, 2) arrays, so every comparison is
    integer arithmetic.  The pass builds n x n tables of squared distances
    one coordinate at a time (no row gathers), charged to the cell cap.
    It runs in int64 only when every product it forms stays below 2^62,
    and on Python ints otherwise.
    """
    pts, img = _int_pairs(points), _int_pairs(twice_values)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    check_cells(n * n, "pair table")
    sp, si = (max(1, *(int(c.max()) - int(c.min()) for c in a.T)) for a in (pts, img))
    # squared distances are at most 2 span^2, and _argmax_ratio
    # multiplies an image distance by four times a source distance
    px, py, iu, iv = _exact(16 * sp**2 * si**2, *pts.T, *img.T)
    four, dimg = 4 * _sq_dists(px, py), _sq_dists(iu, iv)
    # the diagonal pairs a point with itself: set to 0/1, it wins neither pass
    np.fill_diagonal(dimg, 1)
    if not dimg.all():
        a, b = divmod(int(np.argmin(dimg)), n)
        raise ValueError(f"map collapses the pair ({tuple(pts[a].tolist())}, {tuple(pts[b].tolist())})")
    lo = _argmax_ratio(four, dimg)
    np.fill_diagonal(dimg, 0)
    np.fill_diagonal(four, 1)
    hi = _argmax_ratio(dimg, four)
    return tuple(Fraction(int(dimg.flat[t]), int(four.flat[t])) for t in (hi, lo))


def extension_certificate(f: CandidateMap):
    """Exact distortion of f over domain pairs and of its extension over window pairs.

    Returns (Lsq, Lhat_sq, ok) where ok asserts Lhat_sq <= 36 * Lsq: an
    L-bi-Lipschitz map always extends to a 6L-bi-Lipschitz one.  Points
    enter as array indices: distortion ignores translations of the domain.
    """
    iy, ix = np.nonzero(f.mask)
    lmax, lmin = exhaustive_distortion_sq(np.stack([ix, iy], axis=1), 2 * f.image[iy, ix])
    lsq = max(lmax, 1 / lmin)
    ext = hat_extend(f)
    iy, ix = np.indices(f.mask.shape).reshape(2, -1)
    hmax, hmin = exhaustive_distortion_sq(np.stack([ix, iy], axis=1), ext.doubled.reshape(-1, 2))
    hsq = max(hmax, 1 / hmin)
    return lsq, hsq, hsq <= 36 * lsq


# ----------------------------------------------------------------------
# Delone parameters (reporting only: for our window subsets the packing
# radius is 1 and the covering radius is bounded via the even columns)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeloneParams:
    """Separation/covering radii in exact squared form (sep <= 2 cover)."""

    separation_sq: Fraction
    covering_sq: Fraction

    def __post_init__(self):
        if self.separation_sq > 4 * self.covering_sq:
            raise ValueError("separation must be at most twice the covering radius")

    @property
    def separation(self) -> float:
        return float(self.separation_sq) ** 0.5

    @property
    def covering(self) -> float:
        return float(self.covering_sq) ** 0.5


def delone_params_of(patch: Patch) -> DeloneParams:
    """Exact squared separation/covering radii of a patch within its support.

    The covering radius is evaluated over the half-integer grid spanning
    the support, which realizes the worst case for our column-structured
    patches.
    """
    pts = np.argwhere(patch.cells).astype(np.int64)  # (y, x)
    if len(pts) == 0:
        raise ValueError("patch is empty")
    check_cells((2 * patch.height - 1) * (2 * patch.width - 1) * len(pts), "covering-radius table")
    sep_sq = Fraction(1)
    if len(pts) > 1:
        d = pts[:, None, :] - pts[None, :, :]
        dist = (d**2).sum(axis=2)
        np.fill_diagonal(dist, np.iinfo(np.int64).max)
        sep_sq = Fraction(int(dist.min()))
    ys, xs = np.mgrid[0 : 2 * patch.height - 1, 0 : 2 * patch.width - 1]
    halves = np.stack([ys.ravel(), xs.ravel()], axis=1)  # doubled coordinates
    d = halves[:, None, :] - 2 * pts[None, :, :]
    cover4 = int(((d**2).sum(axis=2)).min(axis=1).max())
    return DeloneParams(sep_sq, Fraction(cover4, 4))


# ----------------------------------------------------------------------
# map file format: lines "x y -> u v"
# ----------------------------------------------------------------------

def dumps_map(f: CandidateMap) -> str:
    """One ``x y -> u v`` line per domain point, in (x, y) order: the order
    of ``mask`` read column by column.  The rows are formatted from one
    (n, 4) array, so neither a dict nor a sort is built."""
    ix, iy = np.nonzero(f.mask.T)
    x0, y0 = f.window[:2]
    xs, ys, img = _exact(max(map(abs, f.window)), ix, iy, f.image[iy, ix])
    rows = np.column_stack((xs + x0, ys + y0, img))
    return "\n".join(["%d %d -> %d %d"] * len(rows)) % tuple(rows.ravel().tolist()) + "\n"


# the class of each byte of a plain map text, as a bytes.translate table;
# any other byte (comments, "+", "_", "\r") sends the text to the line
# reader
_OTHER, _BLANK, _NEWLINE, _DIGIT, _DASH, _GT = range(6)
_MAP_BYTES = bytearray([_OTHER]) * 256
_MAP_BYTES[ord(" ")] = _MAP_BYTES[ord("\t")] = _BLANK
_MAP_BYTES[ord("\n")] = _NEWLINE
_MAP_BYTES[ord("0") : ord("9") + 1] = bytes([_DIGIT]) * 10
_MAP_BYTES[ord("-")] = _DASH
_MAP_BYTES[ord(">")] = _GT


def _text_pairs(text: str):
    """(sources, images) of a plain map text, or None when ``text`` is not
    plain or repeats a source point.

    A plain text is lines ``x y -> u v`` of decimal integers, each with an
    optional ``-``, and lines of blanks, split at ``"\\n"``, with blanks
    and tabs around the fields.  It is checked and decoded in numpy passes
    over its bytes: every ``-`` is a sign before a digit or starts ``->``,
    every ``>`` follows a ``-``, no sign follows a digit, and the tokens
    (numbers and arrows) of each line that has any are number, number,
    arrow, number, number.  A text with a value past 18 digits is read as
    Python ints."""
    if not text.isascii():
        return None
    raw = ("\n" + text + "\n").encode()
    padded = np.frombuffer(raw.translate(_MAP_BYTES), dtype=np.uint8)
    prev, cls, nxt = padded[:-2], padded[1:-1], padded[2:]  # each byte's class, and its neighbours'
    digit, dash, gt, newline = cls == _DIGIT, cls == _DASH, cls == _GT, cls == _NEWLINE
    sign = dash & (nxt == _DIGIT)
    if ((cls == _OTHER) | dash & ~sign & (nxt != _GT) | gt & (prev != _DASH) | sign & (prev == _DIGIT)).any():
        return None
    first = digit & (prev != _DIGIT)  # the first digit of each number
    marks = np.flatnonzero(first | gt | newline)
    token = ~newline[marks]
    if np.count_nonzero(token) % 5:
        return None
    line = np.cumsum(~token)[token].reshape(-1, 5)  # the line of each token, five a row
    arrow = gt[marks[token]].reshape(-1, 5)
    if ((arrow != (False, False, True, False, False)).any()
            or (line[:, 0] != line[:, 4]).any() or (line[1:, 0] == line[:-1, 4]).any()):
        return None
    starts, ends = np.flatnonzero(first), np.flatnonzero(digit & (nxt != _DIGIT)) + 1
    width = ends - starts
    if width.max(initial=0) > 18:
        values = np.array([int(t) for t in text.replace("->", " ").split()], dtype=object)
    else:
        at = np.flatnonzero(digit)
        place = np.repeat(ends - 1, width) - at  # the power of ten of each digit
        digits = np.frombuffer(raw, dtype=np.uint8)[1:-1][at] - ord("0")
        values = np.add.reduceat(digits * np.take(10 ** np.arange(19, dtype=np.int64), place),
                                 np.cumsum(width) - width)
        values[prev[starts] == _DASH] *= -1
    quads = values.reshape(-1, 4)
    src = _int_pairs(quads[:, :2])
    return None if _repeats(src) else (src, _int_pairs(quads[:, 2:]))


def _line_pairs(text: str):
    """(sources, images) of any map text, line by line; a PatchFormatError
    names the first line that is malformed or repeats a source point."""
    imgs: dict[Point, Point] = {}
    for ln in _data_lines(text):
        x, y, u, v = _fields(ln, "# # -> # #")
        if (x, y) in imgs:
            raise PatchFormatError(f"repeated source point in map line: {ln!r}")
        imgs[(x, y)] = (u, v)
    return _int_pairs(list(imgs)), _int_pairs(list(imgs.values()))


def parse_map(text: str, window: Window | None = None) -> CandidateMap:
    """The map in ``text``, lines ``x y -> u v``.  A plain text loads in
    whole-text passes; comments, other integer spellings, malformed lines
    and repeated source points go through the line-by-line reader, which
    names the bad line."""
    src, img = _text_pairs(text) or _line_pairs(text)
    if not len(src):
        raise PatchFormatError("empty map file")
    if window is None:
        window = (*(int(c) for c in src.min(axis=0)), *(int(c) for c in src.max(axis=0)))
    try:
        return CandidateMap._from_pairs(window, src, img)
    except MapInvariantError as exc:
        raise PatchFormatError(f"bad map: {exc}") from None


def write_map(path, f: CandidateMap) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_map(f))


def read_map(path, window: Window | None = None) -> CandidateMap:
    with open(path) as fh:
        return parse_map(fh.read(), window)
