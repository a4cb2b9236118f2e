"""Probe-grid analysis of candidate lattice maps.

The window is a long rectangle [0, 2MN] x [0, M] split into 2N abutting
M x M squares, each sampled on a (P+1) x (P+1) probe grid (P divides M).
The predicates implemented here drive the rigidity argument: a map with no
stretched probe step has a square whose increments all project well onto
the baseline vector; on such a square the coarse derivative deviates
little from the average; and a corner-density gap between two consecutive
squares then forces a stretched step to exist after all.  Every pass/fail
comparison is exact (squared norms, cross-multiplied rationals).

Also here: image boundary curves with short-loop deletion, the exact count
of lattice points near a curve, a brute-force minimum-distortion oracle,
and a bounded-radius matching heuristic producing candidate maps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .hierarchy import check_cells
from .maps import CandidateMap, DistortionReport, ExtendedMap, all_pairs, distortion, hat_extend
from .maps import _exact, _peak, _twice_value, identity_map
from .patch import Point

RatPoint = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class GridSpec:
    """Probe layout: rectangle [0, 2MN] x [0, M], probe pitch M/P."""

    M: int
    N: int
    P: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1 or self.P < 1:
            raise ValueError("M, N, P must be positive")
        if self.M % self.P:
            raise ValueError("P must divide M")

    @property
    def window(self) -> tuple[int, int, int, int]:
        return (0, 0, 2 * self.M * self.N, self.M)

    @property
    def pitch(self) -> int:
        return self.M // self.P

    def probe(self, k: int, i: int, j: int) -> Point:
        """x^k_{i,j} = ((k-1)M + i M/P, j M/P); i may run to P+1 by convention."""
        if not 1 <= k <= 2 * self.N:
            raise ValueError(f"square index {k} outside 1..{2 * self.N}")
        return ((k - 1) * self.M + i * self.pitch, j * self.pitch)

    def in_window(self, p: Point) -> bool:
        x0, y0, x1, y1 = self.window
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1


def probe_points(grid: GridSpec, k: int) -> list[Point]:
    """All probe points of square k, plus the conventional i = P+1 column.

    The extra column reaches one pitch into square k+1; it is used as the
    target of the last horizontal increment but is not part of the square.
    """
    return [
        grid.probe(k, i, j)
        for j in range(grid.P + 1)
        for i in range(grid.P + 2)
    ]


def identity_on(grid: GridSpec) -> CandidateMap:
    return identity_map(grid.window)


# ----------------------------------------------------------------------
# no-stretch hypothesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StretchViolation:
    k: int
    i: int
    j: int
    point: Point
    target: Point
    kind: Literal["direct", "shifted"]
    step_sq: Fraction  # squared expansion of the step
    bound_sq: Fraction


def _baseline(f) -> Point:
    """f(2MN, 0) - f(0, 0) at the window's bottom corners, for a candidate
    map or its extension; the end points must be distinct lattice points."""
    x0, y0, x1, _ = f.window
    au, av = _twice_value(f, (x0, y0))
    bu, bv = _twice_value(f, (x1, y0))
    if (au, av) == (bu, bv):
        raise ValueError("degenerate baseline vector: f(2MN,0) = f(0,0)")
    if (bu - au) % 2 or (bv - av) % 2:
        raise ValueError("baseline endpoints must be lattice points")
    return ((bu - au) // 2, (bv - av) // 2)


def _stretch_bound_sq(f: CandidateMap, grid: GridSpec, lam: Fraction) -> Fraction:
    """((1 + lam) ||v|| / 2MN)^2 for the baseline vector v of ``f``."""
    v = _baseline(f)
    return (1 + Fraction(lam)) ** 2 * (v[0] ** 2 + v[1] ** 2) / (2 * grid.M * grid.N) ** 2


def _grid_probes(grid: GridSpec, ks) -> tuple[np.ndarray, ...]:
    """(k, j, i, x, y) over the probes x = x^k_{i,j} of the squares ``ks``:
    arrays of shape (len(ks), P+1, P+1), so they flatten in (k, j, i) order."""
    rng = np.arange(grid.P + 1)
    k, j, i = np.meshgrid(np.asarray(ks), rng, rng, indexing="ij")
    return k, j, i, (k - 1) * grid.M + i * grid.pitch, j * grid.pitch


def _stretched_steps(f: CandidateMap, grid: GridSpec, bound_sq: Fraction, strict: bool,
                     limit: int | None = None) -> list[tuple]:
    """The evaluable probe steps whose squared expansion exceeds
    (``strict``) or reaches ``bound_sq``: the first ``limit`` in (k, j, i)
    order, as tuples (k, i, j, x, target, kind, step_sq).

    ``step_sq`` is the squared expansion |f(target) - f(x)|^2 / den^2, where
    ``den`` is the step length M/P for direct targets and 1 + M/P for
    targets shifted one cell right (used when the direct target misses the
    domain; the shifted one then has even x and is present whenever it
    stays inside the window).  One vector pass over every step of the grid.
    """
    pitch, end = grid.pitch, 2 * grid.M * grid.N
    k, j, i, x, y = (a.ravel() for a in _grid_probes(grid, range(1, 2 * grid.N + 1)))
    here, a = f._at(x, y)
    direct, b = f._at(x + pitch, y)
    shifted, c = f._at(x + pitch + 1, y)
    direct &= x + pitch <= end
    shifted &= ~direct & (x + pitch + 1 <= end)
    keep = np.flatnonzero(here & (direct | shifted))
    k, j, i, x, y, direct = (v[keep] for v in (k, j, i, x, y, direct))
    d = a[keep] - np.where(direct[:, None], b[keep], c[keep])
    du, dv = _exact(2 * _peak(d) ** 2, d[:, 0], d[:, 1])
    d2 = du * du + dv * dv
    # d2 is an integer: d2 > q iff d2 > floor(q), and d2 >= q iff d2 >= ceil(q)
    cmp, rnd = (operator.gt, math.floor) if strict else (operator.ge, math.ceil)
    lim = [rnd(bound_sq * den**2) for den in (pitch, pitch + 1)]
    if d2.dtype == np.int64:
        lim = [min(q, 2**62) for q in lim]  # int64 d2 stays below 2^62
    hit = np.flatnonzero(np.where(direct, cmp(d2, lim[0]), cmp(d2, lim[1])))[:limit]
    return [
        (kk, ii, jj, (xx, yy), (xx + pitch + (not dd), yy), "direct" if dd else "shifted",
         Fraction(s, (pitch + (not dd)) ** 2))
        for kk, ii, jj, xx, yy, dd, s in zip(*(v[hit].tolist() for v in (k, i, j, x, y, direct, d2)))
    ]


def check_no_stretch(f: CandidateMap, grid: GridSpec, lam: Fraction) -> list[StretchViolation]:
    """Probe steps whose expansion exceeds (1 + lam) ||v|| / 2MN, exactly.

    Empty result = the no-stretch hypothesis holds for every evaluable
    probe step (direct or shifted right by one).
    """
    bound_sq = _stretch_bound_sq(f, grid, lam)
    return [StretchViolation(*step, bound_sq) for step in _stretched_steps(f, grid, bound_sq, True)]


# ----------------------------------------------------------------------
# regular squares and the coarse derivative
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegularSquareResult:
    k_star: int | None
    minima: dict[int, Fraction]  # square -> min projected increment / M
    threshold: Fraction  # (1 - tau) ||v||^2 / 2MN
    v: Point


def _ext(f) -> ExtendedMap:
    return f if isinstance(f, ExtendedMap) else hat_extend(f)


def _increments(fh: ExtendedMap, grid: GridSpec, ks) -> np.ndarray:
    """2 (f^(x + M e1) - f^(x)) over the probes x of each square in ``ks``:
    shape (len(ks), (P+1)^2, 2), probes in (j, i) order."""
    *_, x, y = _grid_probes(grid, ks)
    return (fh._at(x + grid.M, y) - fh._at(x, y)).reshape(len(ks), -1, 2)


def find_regular_square(f, grid: GridSpec, tau: Fraction) -> RegularSquareResult:
    """First square whose probe increments all project onto the baseline at
    least (1 - tau) of the average; scans k = 1 .. 2N-1.

    Existence is guaranteed under the no-stretch hypothesis once M, N clear
    the constant floors; absent that, the result simply reports k_star None.
    The projections share the denominator 2M, so each square's minimum is
    one integer minimum over its numerators.
    """
    fh = _ext(f)
    v = _baseline(fh)
    threshold = (1 - Fraction(tau)) * Fraction(v[0] ** 2 + v[1] ** 2, 2 * grid.M * grid.N)
    d = _increments(fh, grid, range(1, 2 * grid.N))
    du, dv = _exact(_peak(d) * (abs(v[0]) + abs(v[1])), d[..., 0], d[..., 1])
    mins = (du * v[0] + dv * v[1]).min(axis=1).tolist()
    minima = {k: Fraction(mn, 2 * grid.M) for k, mn in enumerate(mins, start=1)}
    k_star = next((k for k, mn in minima.items() if mn >= threshold), None)
    return RegularSquareResult(k_star, minima, threshold, v)


@dataclass(frozen=True)
class DeviationReport:
    max_sq: Fraction
    argmax: tuple[int, int]

    @property
    def max(self) -> float:
        return float(self.max_sq) ** 0.5


def coarse_derivative_deviation(f, grid: GridSpec, k_star: int) -> DeviationReport:
    """Max over the square's probes of || (f^(x+Me1) - f^(x))/M - v/2MN ||.

    Exact in squared form: with doubled extension values D2, the deviation
    equals (N*D2 - v) / 2MN componentwise.
    """
    if not 1 <= k_star <= 2 * grid.N - 1:
        raise ValueError("k_star must leave room for the next square")
    fh = _ext(f)
    n, v = grid.N, _baseline(fh)
    d = _increments(fh, grid, [k_star])[0]
    du, dv = _exact(2 * (n * _peak(d) + abs(v[0]) + abs(v[1])) ** 2, d[:, 0], d[:, 1])
    dev = (n * du - v[0]) ** 2 + (n * dv - v[1]) ** 2
    t = int(np.argmax(dev))  # the first maximum, in (j, i) order
    j, i = divmod(t, grid.P + 1)
    return DeviationReport(Fraction(int(dev[t]), (2 * grid.M * grid.N) ** 2), (i, j))


# ----------------------------------------------------------------------
# corner counts and the expanding-pair search
# ----------------------------------------------------------------------

def corner_count(f: CandidateMap, grid: GridSpec, k: int) -> int:
    """|domain points in the M x M lower-left corner of square k|."""
    if not 1 <= k <= 2 * grid.N:
        raise ValueError("square index out of range")
    return _corner_counts(f, grid)[k]


def _corner_counts(f: CandidateMap, grid: GridSpec) -> dict[int, int]:
    """:func:`corner_count` of every square k = 1..2N, in one bincount over the domain."""
    iy, ix = np.nonzero(f.mask)
    x, y = ix + f.window[0], iy + f.window[1]
    keep = (y >= 0) & (y < grid.M) & (x >= 0) & (x < 2 * grid.M * grid.N)
    counts = np.bincount(x[keep] // grid.M, minlength=2 * grid.N)
    return dict(enumerate(counts.tolist(), start=1))


class SquareDensityError(ValueError):
    """The claimed corner-density gap does not hold for any square pair."""


@dataclass(frozen=True)
class ExpandingSearchResult:
    witness: Point | None
    kind: Literal["direct", "shifted", None]
    squares: tuple[int, int] | None
    note: str


def expanding_pair_search(
    f: CandidateMap,
    grid: GridSpec,
    lam: Fraction,
    d: Fraction,
    d_prime: Fraction,
    k: int | None = None,
    verify_densities: bool = True,
) -> ExpandingSearchResult:
    """First probe step with expansion >= (1 + lam) ||v|| / 2MN.

    Requires (and by default verifies) a pair of consecutive squares whose
    corner counts straddle [d' M^2, d M^2].  A None witness falsifies the
    surrounding argument: some asserted hypothesis cannot hold for this f.
    """
    d, dp = Fraction(d), Fraction(d_prime)
    bound_sq = _stretch_bound_sq(f, grid, lam)
    msq = grid.M**2
    pair = None
    if verify_densities:
        counts = _corner_counts(f, grid)
        lo_k = k if k is not None else 1
        hi_k = k if k is not None else 2 * grid.N - 1
        for kk in range(lo_k, hi_k + 1):
            a, b = counts[kk], counts[kk + 1]
            if (a >= d * msq and b <= dp * msq) or (b >= d * msq and a <= dp * msq):
                pair = (kk, kk + 1)
                break
        if pair is None:
            shown = ", ".join(f"S_{kk}: {counts[kk]}" for kk in sorted(counts))
            raise SquareDensityError(
                f"no consecutive squares with corner counts >= {d}*M^2 and <= {dp}*M^2 ({shown})"
            )
    elif k is not None:
        pair = (k, k + 1)
    for _, _, _, x, _, kind, _ in _stretched_steps(f, grid, bound_sq, False, limit=1):
        return ExpandingSearchResult(x, kind, pair, "witness found")
    return ExpandingSearchResult(
        None,
        None,
        pair,
        "no stretched step: the asserted hypotheses are mutually inconsistent for this map",
    )


# ----------------------------------------------------------------------
# boundary curves
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Curve:
    """Closed polyline with exact rational vertices."""

    vertices: tuple[RatPoint, ...]
    seg_len_sq: tuple[Fraction, ...]
    deleted_loops: tuple[float, ...]

    @property
    def length(self) -> float:
        return sum(math.sqrt(float(s)) for s in self.seg_len_sq)


def _curve(vs: Sequence[RatPoint], deleted_loops: Sequence[float] = ()) -> Curve:
    """The closed polyline through ``vs`` in order, closing edge included."""
    ends = [*vs[1:], vs[0]]
    seg_sq = tuple((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2 for a, b in zip(vs, ends))
    return Curve(tuple(vs), seg_sq, tuple(deleted_loops))


def _dedup(vs: Sequence[RatPoint]) -> list[RatPoint]:
    """``vs`` without consecutive repeats, also across the closing edge."""
    out = [p for t, p in enumerate(vs) if t == 0 or p != vs[t - 1]]
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _cross(o: RatPoint, a: RatPoint, b: RatPoint) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: RatPoint, a: RatPoint, b: RatPoint) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _seg_intersection(a, b, c, d) -> RatPoint | None:
    """Exact intersection point of segments ab and cd, or None.

    Proper crossings return the interior point; touches return the touch
    point.  Collinear overlaps return an overlapping endpoint.
    """
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        t = d1 / (d1 - d2)
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    if d1 == 0 and _on_segment(a, c, d):
        return a
    if d2 == 0 and _on_segment(b, c, d):
        return b
    if d3 == 0 and _on_segment(c, a, b):
        return c
    if d4 == 0 and _on_segment(d, a, b):
        return d
    return None


def _first_self_intersection(vs: Sequence[RatPoint]):
    n = len(vs)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent segments share a vertex
            x = _seg_intersection(vs[i], vs[(i + 1) % n], vs[j], vs[(j + 1) % n])
            if x is not None:
                return i, j, x
    return None


def boundary_probe_cycle(grid: GridSpec, k: int) -> list[Point]:
    """Perimeter probes of square k in counterclockwise order."""
    p = grid.P
    cyc = [(i, 0) for i in range(p + 1)]
    cyc += [(p, j) for j in range(1, p + 1)]
    cyc += [(i, p) for i in range(p - 1, -1, -1)]
    cyc += [(0, j) for j in range(p - 1, 0, -1)]
    return [grid.probe(k, i, j) for (i, j) in cyc]


def boundary_curve(f, grid: GridSpec, k: int, L: Fraction | None = None) -> Curve:
    """Image of the square's boundary probes, made simple by deleting loops.

    Self-crossings are resolved by deleting the loop of smaller length,
    iterating to simplicity.  With an L supplied, each deleted loop must
    respect the length cap 2 (6L)^3 M / P, and (when P >= 4 (6L)^4) the
    final curve must clear the positivity floor 4 (sqrt(2)-1) (6L)^3.
    """
    fh = _ext(f)
    vs = _dedup([fh(pt) for pt in boundary_probe_cycle(grid, k)])
    deleted: list[float] = []
    guard = (len(vs) + 4) ** 2
    while True:
        hit = _first_self_intersection(vs)
        if hit is None:
            break
        if guard == 0:
            raise RuntimeError("loop deletion failed to converge")
        guard -= 1
        i, j, x = hit
        loop_a = _curve([x, *vs[i + 1 : j + 1]])
        loop_b = _curve([x, *vs[j + 1 :], *vs[: i + 1]])
        keep, drop = (loop_b, loop_a) if loop_a.length <= loop_b.length else (loop_a, loop_b)
        deleted.append(drop.length)
        vs = _dedup(keep.vertices)
        if len(vs) < 3:
            raise ValueError("curve degenerated while deleting loops")
    curve = _curve(vs, deleted)
    if L is not None:
        lhat = 6 * Fraction(L)
        cap = 2 * float(lhat) ** 3 * grid.M / grid.P
        for ln in deleted:
            if ln > cap * (1 + 1e-9):
                raise ValueError(f"deleted loop of length {ln:.3f} exceeds the cap {cap:.3f}")
        if grid.P >= 4 * lhat**4:
            floor = 4 * (math.sqrt(2) - 1) * float(lhat) ** 3
            if curve.length < floor:
                raise ValueError("degenerate curve: below the positivity floor")
    return curve


def curve_from_points(points: Sequence[RatPoint | Point]) -> Curve:
    """Closed curve through the given vertices (consecutive duplicates dropped)."""
    vs = _dedup([(Fraction(x), Fraction(y)) for x, y in points])
    if len(vs) < 2:
        raise ValueError("need at least two distinct vertices")
    return _curve(vs)


# ----------------------------------------------------------------------
# lattice points near a curve
# ----------------------------------------------------------------------

def count_lattice_near_curve(curve: Curve, T) -> int:
    """|{x in Z^2 : dist(x, curve) <= T}|, exact.

    Preconditions follow the counting bound's range: length >= 4 and
    1 <= T <= length / 4 (the count is then at most 25 T length).
    """
    T = Fraction(T)
    length = curve.length
    if length < 4 - 1e-12 or not 1 <= T or float(T) > length / 4 + 1e-12:
        raise ValueError(
            f"need curve length >= 4 and 1 <= T <= length/4 (length {length:.4f}, T {float(T)})"
        )
    dens = [v.denominator for p in curve.vertices for v in p] + [T.denominator]
    scale = int(np.lcm.reduce(np.array(dens, dtype=object)))
    verts = [(int(p[0] * scale), int(p[1] * scale)) for p in curve.vertices]
    t_scaled = int(T * scale)  # scale clears T's denominator
    xs = [p[0] for p in curve.vertices]
    ys = [p[1] for p in curve.vertices]
    gx0, gx1 = math.ceil(min(xs) - T), math.floor(max(xs) + T)
    gy0, gy1 = math.ceil(min(ys) - T), math.floor(max(ys) + T)
    maxmag = max(
        *(abs(c) for v in verts for c in v),
        *(abs(g) * scale for g in (gx0, gx1, gy0, gy1)),
        t_scaled + 1,
    )
    # int64 keeps every product of _near_segment_mask below 2^63 inside the
    # guard; past it the same pass runs on Python ints
    dtype = np.int64 if maxmag <= 20000 else object
    px, py = np.meshgrid(
        np.array(range(gx0, gx1 + 1), dtype=dtype) * scale,
        np.array(range(gy0, gy1 + 1), dtype=dtype) * scale,
    )
    px, py = px.ravel(), py.ravel()
    mask = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for t in range(n):
        ax, ay = verts[t]
        bx, by = verts[(t + 1) % n]
        mask |= _near_segment_mask(px, py, ax, ay, bx, by, t_scaled * t_scaled)
    return int(mask.sum())


def _near_segment_mask(px, py, ax, ay, bx, by, tsq) -> np.ndarray:
    wx = px - ax
    wy = py - ay
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    ww = wx * wx + wy * wy
    if dd == 0:
        return ww <= tsq
    wd = wx * dx + wy * dy
    before = wd <= 0
    after = wd >= dd
    ub = px - bx
    vb = py - by
    endb = ub * ub + vb * vb <= tsq
    # (w x d)^2 = ww dd - wd^2 (Lagrange) stays below 2^63 under the caller's guard
    cross = wx * dy - wy * dx
    mid = cross * cross <= tsq * dd
    return np.where(before, ww <= tsq, np.where(after, endb, mid))


# ----------------------------------------------------------------------
# brute-force minimum distortion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    bilip_sq: Fraction
    images: tuple[Point, ...]  # aligned with the input point order


def brute_force_min_bilip(points: Sequence[Point], box: tuple[int, int, int, int]) -> BruteForceResult:
    """Exact minimum two-sided distortion over all injections into the box.

    The points are placed in input order, each on a box target taken in
    x-major order, with branch-and-bound on the running constant, so the
    returned witness is the lexicographically first optimum.  At most 8
    points, with integer coordinates; ``box`` is ``(x0, y0, x1, y1)``.

    A pair's squared ratio ``max(d/s, s/d)`` pairs one squared distance
    between the points with one in the box, so the search ranks these few
    ``Fraction``s once and compares small ints.  Each unplaced point keeps
    a bitmask of the targets still allowed: placing a point ANDs every
    later mask with the targets whose rank against its image is below the
    best so far (a distance of 0 never is, so targets stay distinct), and
    an empty mask prunes the branch.  Candidates are tried from the lowest
    bit up, the x-major order, and a pruned subtree holds no leaf below the
    best, so the same improvements are found in the same order as by plain
    backtracking, and the witness is the same.  The rank table holds one
    entry per distinct point distance and pair of targets, and is charged
    to the cell cap.
    """
    pts = list(points)
    if len(pts) > 8:
        raise ValueError("oracle capped at 8 points")
    pts = [_int_fields(p, 2, f"point {k}") for k, p in enumerate(pts)]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    x0, y0, x1, y1 = _int_fields(box, 4, "box (x0, y0, x1, y1)")
    w, h = max(x1 - x0 + 1, 0), max(y1 - y0 + 1, 0)
    n, m = len(pts), w * h
    if m < n:
        raise ValueError("box too small")
    if n < 2:
        return BruteForceResult(Fraction(1), ((x0, y0),)[:n])
    pairs = list(itertools.combinations(range(n), 2))
    src_sq = [(pts[a][0] - pts[b][0]) ** 2 + (pts[a][1] - pts[b][1]) ** 2 for a, b in pairs]
    src_vals = sorted(set(src_sq))
    check_cells(len(src_vals) * m * m, "brute-force rank table")
    # box distances by offset: box_cls[dx, dy] indexes box_vals, and box_vals[0] == 0
    box_vals, box_cls = np.unique(np.add.outer(np.arange(w) ** 2, np.arange(h) ** 2), return_inverse=True)
    ratio = {
        (c, e): Fraction(max(s, d), min(s, d))
        for c, s in enumerate(src_vals) for e, d in enumerate(box_vals.tolist()) if d
    }
    ratios = sorted({Fraction(1), *ratio.values()})
    rank_of = {r: k for k, r in enumerate(ratios)}
    # rank by (point distance, box distance); a distance of 0 ranks past every bound
    rank = np.full((len(src_vals), len(box_vals)), len(ratios), dtype=np.min_scalar_type(len(ratios)))
    for ce, r in ratio.items():
        rank[ce] = rank_of[r]
    ax = np.abs(np.subtract.outer(np.arange(w), np.arange(w)))
    ay = np.abs(np.subtract.outer(np.arange(h), np.arange(h)))
    by_offset = rank[:, box_cls.reshape(w, h)]
    # table[c, i, j]: rank of targets i = (x0 + i // h, y0 + i % h) and j at point distance class c
    table = by_offset[:, ax[:, None, :, None], ay[None, :, None, :]].reshape(len(src_vals), m, m)
    cls = [[0] * n for _ in range(n)]
    for (a, b), s in zip(pairs, src_sq):
        cls[a][b] = src_vals.index(s)
    best, witness = _bf_search(table, cls, len(ratios))
    return BruteForceResult(ratios[best], tuple((x0 + i // h, y0 + i % h) for i in witness))


def _int_fields(value, count: int, what: str) -> tuple[int, ...]:
    """``value`` as a tuple of ``count`` Python ints (numpy ints pass), else
    a one-line ValueError naming ``what``."""
    try:
        fields = tuple(value)
        if len(fields) == count:
            return tuple(map(operator.index, fields))
    except TypeError:
        pass
    raise ValueError(f"{what} must be {count} integers, got {value!r}")


def _bf_search(table: np.ndarray, cls: list[list[int]], unbounded: int) -> tuple[int, list[int]]:
    """The least leaf rank and its first witness, by the search that
    ``brute_force_min_bilip`` describes, on an explicit stack.

    ``table[cls[a][b], i, j]`` is the rank of points a < b on targets i, j.
    ``doms[k][u]`` is the mask of targets left for point u once points
    0..k-1 are placed, and ``rem[k]`` the untried candidates of point k.
    """
    n = len(cls)
    full = (1 << table.shape[1]) - 1
    best, witness = unbounded, None
    allow = _bf_allow(table, cls, best)
    img = [0] * n
    doms = [[full] * n for _ in range(n)]
    rem = [0] * n
    rem[0] = full
    k = 0
    while k >= 0:
        r = rem[k]
        if not r:
            k -= 1
            continue
        low = r & -r
        rem[k] = r ^ low
        i = img[k] = low.bit_length() - 1
        if k < n - 1:
            here, nxt, row = doms[k], doms[k + 1], allow[k]
            for u in range(k + 1, n):
                d = here[u] & row[u][i]
                if not d:
                    break
                nxt[u] = d
            else:
                rem[k + 1] = nxt[k + 1]
                k += 1
            continue
        # a leaf: every pair ranks below best, so this is the next improvement
        best = max(int(table[cls[a][b], img[a], img[b]]) for a, b in itertools.combinations(range(n), 2))
        witness = list(img)
        if best == 0:  # rank 0 is the ratio 1, which nothing beats
            break
        allow = _bf_allow(table, cls, best)
        for k in range(1, n):  # re-filter the stack for the new bound
            prev, cur, row, i = doms[k - 1], doms[k], allow[k - 1], img[k - 1]
            for u in range(k, n):
                cur[u] = prev[u] & row[u][i]
            rem[k] &= cur[k]
            if not cur[k] >> img[k] & 1:  # point k's image is out: its subtree is spent
                rem[k + 1:] = [0] * (n - k - 1)
                break
        k = n - 1
    return best, witness


def _bf_allow(table: np.ndarray, cls: list[list[int]], bound: int) -> list[list[list[int]]]:
    """``allow[a][b][i]``: mask of the targets j with rank of points a < b on
    targets i, j below ``bound``."""
    nc, m, _ = table.shape
    packed = np.packbits(table < bound, axis=-1, bitorder="little")
    step = packed.shape[-1]
    buf = packed.tobytes()
    masks = [
        [int.from_bytes(buf[o:o + step], "little") for o in range(c * m * step, (c + 1) * m * step, step)]
        for c in range(nc)
    ]
    return [[masks[c] for c in row] for row in cls]


# ----------------------------------------------------------------------
# bounded-radius matching heuristic
# ----------------------------------------------------------------------

_PAIR_CAP = 4000  # more point pairs than this: adjacent pairs plus a sample


@dataclass(frozen=True)
class HeuristicResult:
    map: CandidateMap
    report: DistortionReport
    radius_sq: int


def heuristic_grid_map(
    window_pts: Sequence[Point],
    radius_budget: int,
    target_box: tuple[int, int, int, int] | None = None,
) -> HeuristicResult:
    """Injective map onto lattice targets minimizing the largest displacement.

    Binary-searches the bottleneck radius over the realizable squared
    distances and certifies feasibility with an augmenting-path matching.
    Without a ``target_box`` every lattice point within the budget is an
    eligible target, so sparse windows relax to (near-)identity placements;
    with one, the points must pack into the box, which is how the
    compression cost of a density deficit is measured.  The distortion
    report is exact over all pairs when there are few, else over adjacent
    pairs plus a deterministic sample.  The map's window is the points'
    bounding box.
    """
    pts = sorted(set(window_pts))
    if not pts:
        raise ValueError("empty window")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    window = (min(xs), min(ys), max(xs), max(ys))
    r = int(radius_budget)
    if target_box is not None:
        bx0, by0, bx1, by1 = target_box
        targets = sorted(
            (x, y) for x in range(bx0, bx1 + 1) for y in range(by0, by1 + 1)
        )
        if len(targets) < len(pts):
            raise ValueError("target box too small")
    else:
        targets = sorted(
            {
                (x + dx, y + dy)
                for (x, y) in pts
                for dx in range(-r, r + 1)
                for dy in range(-r, r + 1)
                if dx * dx + dy * dy <= r * r
            }
        )
    dist_sq = [
        [(p[0] - t[0]) ** 2 + (p[1] - t[1]) ** 2 for t in targets] for p in pts
    ]
    cands = sorted(
        {d for row in dist_sq for d in row if d <= r * r}
    )
    lo, hi = 0, len(cands) - 1
    if not cands or _match(pts, targets, dist_sq, cands[-1]) is None:
        raise ValueError("no injective placement within the radius budget")
    while lo < hi:
        mid = (lo + hi) // 2
        if _match(pts, targets, dist_sq, cands[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    rsq = cands[lo]
    assign = _match(pts, targets, dist_sq, rsq)
    imgs = {p: targets[assign[a]] for a, p in enumerate(pts)}
    cmap = CandidateMap(window, imgs)
    adj = [
        (p, q)
        for p, q in itertools.combinations(pts, 2)
        if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= 2
    ]
    pairs = all_pairs(pts)
    if len(pairs) > _PAIR_CAP:
        stride = len(pairs) // _PAIR_CAP + 1
        pairs = pairs[::stride] + adj
    report = distortion(cmap, pairs)
    return HeuristicResult(cmap, report, rsq)


def _match(pts, targets, dist_sq, rsq) -> list[int] | None:
    """Kuhn's augmenting-path matching under a squared-radius cap."""
    nbrs = [
        [t for t in range(len(targets)) if dist_sq[a][t] <= rsq]
        for a in range(len(pts))
    ]
    owner = [-1] * len(targets)
    assign = [-1] * len(pts)

    def augment(a: int, seen: set[int]) -> bool:
        for t in nbrs[a]:
            if t in seen:
                continue
            seen.add(t)
            if owner[t] == -1 or augment(owner[t], seen):
                owner[t] = a
                assign[a] = t
                return True
        return False

    for a in range(len(pts)):
        if not augment(a, set()):
            return None
    return assign
