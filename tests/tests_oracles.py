"""Independent oracles for the acceptance tests.

Each function re-evaluates the defining formulas directly (Fractions,
double loops, window rescans), sharing no code with the library paths it
checks.
"""

import itertools
import re
from fractions import Fraction as F

import numpy as np


def _fhat(f, p):
    """The defining extension formula, inlined: right neighbour - (1/2, 0)."""
    if p in f.images:
        u, v = f.images[p]
        return (F(u), F(v))
    u, v = f.images[(p[0] + 1, p[1])]
    return (F(u) - F(1, 2), F(v))


def extension_certificate_oracle(f):
    """(L^2, Lhat^2, Lhat^2 <= 36 L^2) over all pairs, in Fractions."""

    def bilip_sq(values):
        ratios = [
            ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
            for (p, a), (q, b) in itertools.combinations(values.items(), 2)
        ]
        return max(max(ratios), 1 / min(ratios))

    x0, y0, x1, y1 = f.window
    window = [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]
    lsq = bilip_sq({p: (F(u), F(v)) for p, (u, v) in f.images.items()})
    hsq = bilip_sq({p: _fhat(f, p) for p in window})
    return lsq, hsq, hsq <= 36 * lsq


def pair_ratio_extremes(points, twice):
    """Max and min of |F(p) - F(q)|^2 / (4 |p - q|^2) over all pairs, in Fractions."""
    ratios = [
        F((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2, 4 * ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2))
        for (p, a), (q, b) in itertools.combinations(zip(points, twice), 2)
    ]
    return max(ratios), min(ratios)


def corner_count_oracle(f, grid, k):
    """Domain points in the M x M lower-left corner of square k, one by one."""
    x0 = (k - 1) * grid.M
    return sum(1 for (x, y) in f.images if x0 <= x < x0 + grid.M and 0 <= y < grid.M)


_MAP_LINE = re.compile(r"\s*(\S+)\s+(\S+)\s*->\s*(\S+)\s+(\S+)\s*")


def map_text_oracle(text, window=None):
    """What reading a map text gives, line by line from the format's rules:
    ``("map", {point: image})`` or ``("error", message)``."""
    images = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _MAP_LINE.fullmatch(line)
        try:
            x, y, u, v = (int(g) for g in m.groups())
        except (AttributeError, ValueError):
            return "error", f"expected '# # -> # #', got {line!r}"
        if (x, y) in images:
            return "error", f"repeated source point in map line: {line!r}"
        images[x, y] = (u, v)
    if not images:
        return "error", "empty map file"
    if window is None:
        xs, ys = [p[0] for p in images], [p[1] for p in images]
        window = (min(xs), min(ys), max(xs), max(ys))
    x0, y0, x1, y1 = window
    if x0 > x1 or y0 > y1:
        return "error", "bad map: empty window"
    for x, y in images:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            return "error", f"bad map: domain point {(x, y)} outside window"
    if len(set(images.values())) < len(images):
        return "error", "bad map: map is not injective"
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if x % 2 == 0 and (x, y) not in images:
                return "error", f"bad map: window point {(x, y)} has even x but is not in the domain"
    return "map", images


def stretch_oracle(f, grid, lam):
    out = []
    v = f.baseline_vector()
    vsq = F(v[0] ** 2 + v[1] ** 2)
    for k in range(1, 2 * grid.N + 1):
        for j in range(grid.P + 1):
            for i in range(grid.P + 1):
                x = grid.probe(k, i, j)
                if x not in f.images:
                    continue
                t = grid.probe(k, i + 1, j)
                if not grid.in_window(t):
                    continue
                if t in f.images:
                    den = grid.M // grid.P
                elif grid.in_window((t[0] + 1, t[1])) and (t[0] + 1, t[1]) in f.images:
                    t = (t[0] + 1, t[1])
                    den = 1 + grid.M // grid.P
                else:
                    continue
                fu, fv = f.images[x]
                gu, gv = f.images[t]
                lhs = F((fu - gu) ** 2 + (fv - gv) ** 2, den**2)
                rhs = (1 + F(lam)) ** 2 * vsq / (2 * grid.M * grid.N) ** 2
                if lhs > rhs:
                    out.append((k, i, j))
    return out


def regular_oracle(f, grid, tau):
    v = f.baseline_vector()
    vsq = F(v[0] ** 2 + v[1] ** 2)
    threshold = (1 - F(tau)) * vsq / (2 * grid.M * grid.N)
    minima = {}
    k_star = None
    for k in range(1, 2 * grid.N):
        vals = []
        for j in range(grid.P + 1):
            for i in range(grid.P + 1):
                x = grid.probe(k, i, j)
                a = _fhat(f, (x[0] + grid.M, x[1]))
                b = _fhat(f, x)
                vals.append(((a[0] - b[0]) * v[0] + (a[1] - b[1]) * v[1]) / grid.M)
        minima[k] = min(vals)
        if k_star is None and minima[k] >= threshold:
            k_star = k
    return k_star, minima


def deviation_oracle(f, grid, k):
    v = f.baseline_vector()
    worst = F(0)
    for j in range(grid.P + 1):
        for i in range(grid.P + 1):
            x = grid.probe(k, i, j)
            a = _fhat(f, (x[0] + grid.M, x[1]))
            b = _fhat(f, x)
            dx = (a[0] - b[0]) / grid.M - F(v[0], 2 * grid.M * grid.N)
            dy = (a[1] - b[1]) / grid.M - F(v[1], 2 * grid.M * grid.N)
            worst = max(worst, dx * dx + dy * dy)
    return worst


def repetitivity_oracle(cells: np.ndarray, r: int):
    """Exhaustive double scan over window sizes and positions."""
    side = cells.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(cells, (r, r))
    flat = win.reshape(win.shape[0], win.shape[1], r * r)
    codes = np.zeros(win.shape[:2], dtype=np.int64)
    for t in range(r * r):
        codes = codes * 2 + flat[:, :, t]
    all_codes = set(np.unique(codes))
    for big in range(r, side - r + 1):
        k = big - r + 1
        good = True
        for wy in range(side - big + 1):
            if not good:
                break
            for wx in range(side - big + 1):
                if set(np.unique(codes[wy : wy + k, wx : wx + k])) != all_codes:
                    good = False
                    break
        if good:
            return big
    return None


def pt_seg_dist_sq_le(p, a, b, tsq):
    """dist(p, segment ab)^2 <= tsq, by the three cases of the closest point,
    on Python numbers (ints or Fractions)."""
    wx, wy = p[0] - a[0], p[1] - a[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    if dd == 0:
        return wx * wx + wy * wy <= tsq
    wd = wx * dx + wy * dy
    if wd <= 0:
        return wx * wx + wy * wy <= tsq
    if wd >= dd:
        ux, uy = p[0] - b[0], p[1] - b[1]
        return ux * ux + uy * uy <= tsq
    return (wx * wx + wy * wy) * dd - wd * wd <= tsq * dd


def dumps_map_oracle(f):
    """A map's text by the format's definition: one ``x y -> u v`` line per
    domain point, from the images dict sorted by source point."""
    lines = [f"{x} {y} -> {u} {v}" for (x, y), (u, v) in sorted(f.images.items())]
    return "\n".join(lines) + "\n"


def brute_force_oracle(points, box):
    """(least squared distortion, witness) over every injection into the box:
    ``itertools.permutations`` of the x-major targets, each scored by the
    exact ``max(d/s, s/d)`` over its pairs (1 with no pairs); the first
    minimum met is the witness."""
    x0, y0, x1, y1 = box
    targets = [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
    pairs = list(itertools.combinations(range(len(points)), 2))

    def sq(p, q):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2

    best, witness = None, None
    for images in itertools.permutations(targets, len(points)):
        value = F(1)
        for a, b in pairs:
            s, d = sq(points[a], points[b]), sq(images[a], images[b])
            value = max(value, F(d, s), F(s, d))
        if best is None or value < best:
            best, witness = value, images
    return best, witness


def patch_text_oracle(p, fmt):
    """A patch's plain-PBM ("pbm") or .dpf ("dpf") text by the formats'
    rules, one cell at a time: the header line(s), then the rows top row
    first, each cell its digit ('1' occupied), PBM digits separated by one
    space, every row ending in a newline."""
    h, w = p.cells.shape
    if fmt == "pbm":
        head, sep = f"P1\n{w} {h}\n", " "
    else:
        flag = " full_boundary" if p.full_boundary else ""
        head, sep = f"PATCH {w} {h} {p.origin[0]} {p.origin[1]}{flag}\n", ""
    rows = [sep.join("1" if p.get(x, y) else "0" for x in range(w)) for y in reversed(range(h))]
    return head + "".join(row + "\n" for row in rows)


def points_text_oracle(p):
    """A patch's points text as the writer once made it: the occupied cells
    sorted by (y, x), one ``f"{x} {y}"`` line a point."""
    ox, oy = p.origin
    ys, xs = np.nonzero(p.cells)
    order = np.lexsort((xs, ys))
    return "".join(f"{ox + int(xs[i])} {oy + int(ys[i])}\n" for i in order)


_PLAIN_MAP_LINE = r"[ \t]*-?[0-9]+[ \t]+-?[0-9]+[ \t]*->[ \t]*-?[0-9]+[ \t]+-?[0-9]+[ \t]*"
# a whole map text of plain lines: ASCII digits, blanks and tabs, no comments
PLAIN_MAP_TEXT = re.compile(rf"(?:(?:{_PLAIN_MAP_LINE}|[ \t]*)\n)*(?:{_PLAIN_MAP_LINE}|[ \t]*)")


def plain_map_oracle(text):
    """The values of a plain map text, in order, by the regular expression
    of its lines and a whitespace split; None when the text is not plain."""
    if not PLAIN_MAP_TEXT.fullmatch(text):
        return None
    return [int(t) for t in text.replace("->", " ").split()]


def spec_lines_oracle(text):
    """The non-blank lines of a .dhs text, as the whole text's splitlines."""
    return [ln for ln in text.splitlines() if ln.strip()]


def row_runs_oracle(ids):
    """(id, length) of the runs of equal ints in a row's ids, as the loader
    read them before it cut rows on their text: ``int`` of every id, then
    a groupby."""
    return tuple((v, len(list(run))) for v, run in itertools.groupby(map(int, ids)))


# a dense .dhs body line: decimal ids separated by single spaces
DENSE_ROW = re.compile(r"[0-9]+(?: [0-9]+)*")


def dense_row_oracle(text, cols):
    """The ids of a dense body line of ``cols`` ids, by the regular
    expression of the format; None when the line is not one."""
    ids = text.split(" ")
    return ids if len(ids) == cols and DENSE_ROW.fullmatch(text) else None


def loads_spec_oracle(text):
    """A .dhs text loaded as the whole-text loader did: one list of its
    non-blank lines, each its own string, parsed by ``_parse_spec``."""
    from delone import hierarchy
    from delone.patch import PatchFormatError

    try:
        return hierarchy._parse_spec(spec_lines_oracle(text))
    except PatchFormatError:
        raise
    except ValueError as exc:
        raise PatchFormatError(str(exc)) from None
