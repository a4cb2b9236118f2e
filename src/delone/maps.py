"""Partial lattice maps, their half-step extension, and distortion arithmetic.

A :class:`CandidateMap` is a finite injective map from a subset of a
rectangular window of Z^2 into Z^2.  The subset must contain every window
point with even first coordinate, which guarantees that the extension
:func:`hat_extend` is defined on the whole window: a missing point takes
the value of its right neighbour shifted left by half a step.

Expansion ratios ||f(x)-f(y)|| / ||x-y|| are kept exact by comparing
squared quantities; extended values live in (1/2)Z^2 and are stored as
integer pairs scaled by two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hierarchy import check_cells
from .patch import Patch, PatchFormatError, Point, _data_lines, _fields

Window = tuple[int, int, int, int]  # x0, y0, x1, y1 inclusive


class MapInvariantError(ValueError):
    """Raised when a candidate map violates a structural invariant."""


def window_points(window: Window) -> list[Point]:
    x0, y0, x1, y1 = window
    return [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]


@dataclass(frozen=True)
class CandidateMap:
    """Injective map from a window subset (with all even columns) into Z^2."""

    window: Window
    images: Mapping[Point, Point]

    def __post_init__(self):
        x0, y0, x1, y1 = self.window
        if x0 > x1 or y0 > y1:
            raise MapInvariantError("empty window")
        imgs = dict(self.images)
        for (x, y) in imgs:
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                raise MapInvariantError(f"domain point {(x, y)} outside window")
        if len(set(imgs.values())) != len(imgs):
            raise MapInvariantError("map is not injective")
        for y in range(y0, y1 + 1):
            for x in range(x0 if x0 % 2 == 0 else x0 + 1, x1 + 1, 2):
                if (x, y) not in imgs:
                    raise MapInvariantError(
                        f"window point {(x, y)} has even x but is not in the domain"
                    )
        object.__setattr__(self, "images", imgs)

    @property
    def domain(self) -> set[Point]:
        return set(self.images)

    def __call__(self, p: Point) -> Point:
        return self.images[p]

    def __contains__(self, p: Point) -> bool:
        return p in self.images

    def baseline_vector(self) -> Point:
        """f(2MN, 0) - f(0, 0) for a window [0, 2MN] x [0, M]."""
        x0, y0, x1, _ = self.window
        a = self.images[(x0, y0)]
        b = self.images[(x1, y0)]
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


def identity_map(window: Window, domain: Iterable[Point] | None = None) -> CandidateMap:
    pts = window_points(window) if domain is None else list(domain)
    return CandidateMap(window, {p: p for p in pts})


@dataclass(frozen=True)
class ExtendedMap:
    """Total map on a window with values in (1/2)Z^2, stored doubled."""

    window: Window
    twice_images: Mapping[Point, Point]  # value = 2 * f_hat(point)

    def twice(self, p: Point) -> Point:
        return self.twice_images[p]

    def __call__(self, p: Point) -> tuple[Fraction, Fraction]:
        u, v = self.twice_images[p]
        return (Fraction(u, 2), Fraction(v, 2))

    def points(self) -> list[Point]:
        return window_points(self.window)


def hat_extend(f: CandidateMap) -> ExtendedMap:
    """Extend ``f`` to its whole window.

    On the domain the extension agrees with ``f``; elsewhere it takes the
    value at the right neighbour minus (1/2, 0).  The right neighbour must
    belong to the domain (it does whenever the missing point has odd x and
    its neighbour is still inside the window).
    """
    out: dict[Point, Point] = {}
    for p in window_points(f.window):
        if p in f.images:
            u, v = f.images[p]
            out[p] = (2 * u, 2 * v)
        else:
            q = (p[0] + 1, p[1])
            if q not in f.images:
                raise MapInvariantError(
                    f"cannot extend at {p}: right neighbour {q} not in the domain"
                )
            u, v = f.images[q]
            out[p] = (2 * u - 1, 2 * v)
    return ExtendedMap(f.window, out)


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
    if isinstance(f, CandidateMap):
        u, v = f.images[p]
        return (2 * u, 2 * v)
    u, v = f[p]
    return (2 * u, 2 * v)


def distortion(f, pairs: Sequence[tuple[Point, Point]]) -> DistortionReport:
    """Exact max/min expansion of ``f`` over the given point pairs.

    ``f`` may be a CandidateMap, an ExtendedMap, or a plain mapping with
    integer values.  Ratios are squared rationals; the report is symmetric
    in each pair and invariant under translating domain and image.
    """
    if not pairs:
        raise ValueError("empty pair list")
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
    """Index of the exact maximum of num[i]/den[i].

    Inputs are int64 arrays whose cross products num[i] * den[j] stay
    below 2^62, or object arrays of Python ints.
    """
    idx = int(np.argmax(num / den))
    while True:
        bad = np.nonzero(num * den[idx] > num[idx] * den)[0]
        if bad.size == 0:
            return idx
        idx = int(bad[0])


def exhaustive_distortion_sq(points: Sequence[Point], twice_values: Sequence[Point]):
    """(max_expansion_sq, min_expansion_sq) over ALL pairs, exact.

    Vectorized over the full pair set; inputs are lattice points and
    doubled image values, so every comparison is integer arithmetic.
    The pass runs in int64 only when every product it forms stays below
    2^62, and on Python ints (``dtype=object``) otherwise.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    pts, img = _exact_arrays(points, twice_values)
    iu, ju = np.triu_indices(n, k=1)
    dsrc = ((pts[iu] - pts[ju]) ** 2).sum(axis=1)
    dimg4 = ((img[iu] - img[ju]) ** 2).sum(axis=1)
    hi = _argmax_ratio(dimg4, 4 * dsrc)
    lo = _argmax_ratio(4 * dsrc, np.maximum(dimg4, 1))
    if dimg4[lo] == 0:
        a, b = int(iu[lo]), int(ju[lo])
        raise ValueError(f"map collapses the pair ({points[a]}, {points[b]})")
    return (
        Fraction(int(dimg4[hi]), 4 * int(dsrc[hi])),
        Fraction(int(dimg4[lo]), 4 * int(dsrc[lo])),
    )


def _exact_arrays(points: Sequence[Point], twice_values: Sequence[Point]) -> list[np.ndarray]:
    """(n, 2) arrays of the points and the doubled images: int64 when the
    distortion pass cannot overflow, object arrays of Python ints otherwise."""
    try:
        arrs = [np.asarray(v, dtype=np.int64) for v in (points, twice_values)]
    except OverflowError:
        arrs = None
    if arrs is not None:
        sp, si = (max(1, *(int(c.max()) - int(c.min()) for c in a.T)) for a in arrs)
        # squared distances are at most 2 span^2, and _argmax_ratio
        # multiplies an image distance by four times a source distance
        if 16 * sp**2 * si**2 < 2**62:
            return arrs
    return [np.array([(int(x), int(y)) for x, y in v], dtype=object) for v in (points, twice_values)]


def extension_certificate(f: CandidateMap):
    """Exact distortion of f over domain pairs and of its extension over window pairs.

    Returns (Lsq, Lhat_sq, ok) where ok asserts Lhat_sq <= 36 * Lsq: an
    L-bi-Lipschitz map always extends to a 6L-bi-Lipschitz one.
    """
    dom = sorted(f.domain)
    lmax, lmin = exhaustive_distortion_sq(dom, [(2 * u, 2 * v) for (u, v) in (f.images[p] for p in dom)])
    lsq = max(lmax, 1 / lmin)
    ext = hat_extend(f)
    pts = ext.points()
    hmax, hmin = exhaustive_distortion_sq(pts, [ext.twice(p) for p in pts])
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
    lines = [f"{x} {y} -> {u} {v}" for (x, y), (u, v) in sorted(f.images.items())]
    return "\n".join(lines) + "\n"


def parse_map(text: str, window: Window | None = None) -> CandidateMap:
    imgs: dict[Point, Point] = {}
    for ln in _data_lines(text):
        x, y, u, v = _fields(ln, "# # -> # #")
        if (x, y) in imgs:
            raise PatchFormatError(f"repeated source point in map line: {ln!r}")
        imgs[(x, y)] = (u, v)
    if not imgs:
        raise PatchFormatError("empty map file")
    if window is None:
        xs = [p[0] for p in imgs]
        ys = [p[1] for p in imgs]
        window = (min(xs), min(ys), max(xs), max(ys))
    try:
        return CandidateMap(window, imgs)
    except MapInvariantError as exc:
        raise PatchFormatError(f"bad map: {exc}") from None


def write_map(path, f: CandidateMap) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_map(f))


def read_map(path, window: Window | None = None) -> CandidateMap:
    with open(path) as fh:
        return parse_map(fh.read(), window)
