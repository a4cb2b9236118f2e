"""Realizing a finite-dimensional simplex of invariant measures.

The ingredients: a scale sequence p_n (squares q_n = p_n^2), a sequence
r_n controlling a forced bottom stripe, and integer transition matrices
A_n whose columns prescribe exactly how many blocks of each level-n patch
a level-(n+1) patch contains.  Patches at consecutive levels are built so
that: the upper-right block of every patch is patch 1 (and patch 1 is used
nowhere else, which keeps the block decomposition unambiguous); the bottom
stripe of r_n block-rows alternates two designated patches; and the free
blocks are filled to meet the matrix counts, with a small designated-cell
device that keeps the outputs pairwise distinct.

Invariant measures then correspond to vectors mu_n with mu_n = A_n mu_{n+1}
exactly; back-propagating different terminal vertices gives finite-depth
shadows of the simplex's extreme points.  Full identification of the
inverse limit is not machine-checkable and is reported as such.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Literal

import numpy as np

from .hierarchy import (
    Arrangement,
    Edge,
    HierarchySpec,
    Level,
    SchemeReport,
    _check_row,
    _imat_vec,
    _products,
)
from .patch import Patch, PatchFormatError, _data_lines, _fields

IntMatrix = list[list[int]]  # rows x cols, entry [i][j]


class SimplexBuildError(ValueError):
    """Infeasible sizes or matrices for the level builder."""


# ----------------------------------------------------------------------
# sequences and matrices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChoquetSeq:
    """Scale and stripe sequences, patch counts per level, and the transition
    matrices built over them (none for the bare sequences).

    q_n = p_n^2, l_n = p_{n+1}/(2 p_n) - 1 and the expansion-headroom flag
    of each step follow from ``p``, ``r`` and ``k[0]``.
    """

    dim: int | None
    p: tuple[int, ...]
    r: tuple[int, ...]
    k: tuple[int, ...]
    A: list[IntMatrix] = field(default_factory=list)
    mode: str = "rigorous"

    @cached_property
    def q(self) -> tuple[int, ...]:
        return tuple(v * v for v in self.p)

    @cached_property
    def l(self) -> tuple[int, ...]:
        return tuple(b // (2 * a) - 1 for a, b in zip(self.p, self.p[1:]))

    @cached_property
    def headroom_ok(self) -> tuple[bool, ...]:
        """The expansion-headroom check per step, for patch count k[0]."""
        return tuple(_headroom_ok(a, b, r_n, self.k[0]) for a, b, r_n in zip(self.p, self.p[1:], self.r))

    @property
    def depth(self) -> int:
        return len(self.p)

    def product(self, n: int) -> IntMatrix:
        """A_1 ... A_n (identity for n = 0)."""
        return _prefix_products(self, n)[-1]


def _prefix_products(seq: ChoquetSeq, n: int) -> list[IntMatrix]:
    """[A_1 ... A_t for t = 0..n]."""
    if not 0 <= n <= len(seq.A):
        raise ValueError(f"no product of {n} matrices: the sequence holds {len(seq.A)}")
    return _products(seq.A[:n], seq.k[0])


def p_sequence(dim: int | None, n_max: int, k: int | None = None) -> ChoquetSeq:
    """Canonical scale sequences: p_1 = max(4, d) (4 when the simplex is
    infinite-dimensional), p_{n+1} = 2 n! p_n^2, r_n = n!.

    Verifies r_n p_n < p_{n+1} (hard error) and records per-step whether the
    expansion-headroom inequality
    p_{n+1} > ((k-1) p_n^2/(k-2)) (r_n/p_n + 1) holds for the given patch
    count k (default 3; the first step fails it for k = 3, which the level
    builder sidesteps by direct feasibility checks).
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return _grown_sizes(dim, n_max, None, k)


def _grown_sizes(dim: int | None, n_max: int, ratio_cap: int | None,
                 k: int | None) -> ChoquetSeq:
    """p_1 = max(4, d), p_{n+1} = 2 n! p_n^2 (at most ratio_cap p_n when a
    cap is given) and r_n = n!, for n_max scales, with no matrices."""
    p = [4 if dim is None else max(4, dim)]
    for n in range(1, n_max):
        p_next = 2 * math.factorial(n) * p[-1] ** 2
        if ratio_cap is not None:
            p_next = min(p_next, p[-1] * ratio_cap)
        if math.factorial(n) * p[-1] >= p_next:
            raise SimplexBuildError(
                f"ratio cap {ratio_cap} too small for the stripe rule at step {n}"
            )
        p.append(p_next)
    r = tuple(math.factorial(n) for n in range(1, len(p) + 1))
    return ChoquetSeq(dim, tuple(p), r, (3 if k is None else k,) * len(p),
                      mode="rigorous" if ratio_cap is None else "toy")


def _headroom_ok(p_n: int, p_next: int, r_n: int, k: int) -> bool:
    if k < 3:
        return False
    return p_next > Fraction((k - 1) * p_n**2, k - 2) * (Fraction(r_n, p_n) + 1)


def toy_p_sequence(dim: int | None, n_max: int, ratio_cap: int = 128,
                   k: int | None = None) -> ChoquetSeq:
    """Canonical sequences with each growth ratio capped (kept even).

    Grids stay small enough to build at any depth; the entry floors that
    need the full growth are reported, not required, in toy mode.
    """
    if ratio_cap < 4 or ratio_cap % 2:
        raise ValueError("ratio cap must be an even integer >= 4")
    return _grown_sizes(dim, n_max, ratio_cap, k)


def make_finite_dim_matrices(
    num_extreme_points: int, sizes: ChoquetSeq, mode: str = "rigorous"
) -> list[IntMatrix]:
    """Integer transition matrices realizing a simplex with the given number
    of extreme points over the given sizes.

    Constant patch count k = e + 1; row 1 is all ones, the first two columns
    are equal, and column j (j >= 2) is dominated by row j, so the
    column-normalized products converge to e distinct limit columns.  In
    ``rigorous`` mode every entry below row 1 is at least max(k, r_n p_{n+1})
    (the scale floor); ``toy`` mode only guarantees stripe-and-device
    headroom.  Raises when the size ratios leave no room.
    """
    e = num_extreme_points
    if e < 2:
        raise ValueError("need at least two extreme points")
    k = e + 1
    out: list[IntMatrix] = []
    for n in range(len(sizes.p) - 1):
        if sizes.q[n + 1] % sizes.q[n]:
            raise SimplexBuildError("q values must divide")
        ratio, floor, dominant = _step_entries(sizes, n, n + 1, k, mode)
        if dominant is None:
            raise SimplexBuildError(
                f"step {n + 1}: ratio {ratio} cannot fit {k - 1} rows with floor "
                f"{floor} (need ratio >= {1 + (k - 1) * floor})"
            )
        mat = [[0] * k for _ in range(k)]
        for j in range(k):
            mat[0][j] = 1
            dom_row = 1 if j <= 1 else j  # columns 1 and 2 share row 2
            for i in range(1, k):
                mat[i][j] = dominant if i == dom_row else floor
        out.append(mat)
    return out


def _step_entries(sizes: ChoquetSeq, i: int, j: int, k: int, mode: str = "rigorous") -> tuple[int, int, int | None]:
    """(ratio q_j/q_i, floor of the lower rows, dominant entry) of the step from
    scale i to scale j with k patches; the dominant entry is None when it
    falls below the floor or the stripe-and-device headroom."""
    ratio = sizes.q[j] // sizes.q[i]
    stripe = sizes.r[i] * sizes.p[j] // sizes.p[i]
    floor = max(k, sizes.r[i] * sizes.p[j] if mode == "rigorous" else stripe + k + 1)
    dominant = ratio - 1 - (k - 2) * floor
    return ratio, floor, dominant if dominant >= max(floor, stripe + k + 1) else None


def validate_choquet_seq(seq: ChoquetSeq) -> SchemeReport:
    """Structural validation of the sequences and matrices.

    Rows: start_scale (p_1 = max(4, d), or 4 for infinite dimension),
    min_patches (k_n >= 3), unit_first_row, column_sums (= q_{n+1}/q_n),
    entry_floor_patches (min over rows >= 2 is >= k_{n+1}),
    entry_floor_scale (same min >= r_n sqrt(q_{n+1})), stripe_ratio
    (r_n p_n < p_{n+1}), expansion_headroom, and the not-machine-checkable
    inverse-limit identification (recorded as a note).  In toy mode the two
    entry floors and the headroom are reported but do not fail the report.
    """
    toy = seq.mode == "toy"
    steps = range(len(seq.p) - 1)
    p1_expect = 4 if seq.dim is None else max(4, seq.dim)

    def column_sums():
        for n, mat in enumerate(seq.A):
            want = seq.q[n + 1] // seq.q[n]
            for j in range(seq.k[n + 1]):
                got = sum(mat[i][j] for i in range(seq.k[n]))
                if got != want:
                    yield f"A_{n+1} column {j+1} sums to {got}, want {want}"

    def entry_floor(floor, label):
        for n, mat in enumerate(seq.A):
            lo = min(mat[i][j] for i in range(1, seq.k[n]) for j in range(len(mat[0])))
            if lo < floor(n):
                yield f"A_{n+1} min lower entry {lo} < {label} = {floor(n)}"

    return SchemeReport((
        _check_row("start_scale", [f"p_1 = {seq.p[0]}, expected {p1_expect}"] if seq.p[0] != p1_expect else []),
        _check_row("min_patches", (f"k too small at level {[n]}" for n, kk in enumerate(seq.k) if kk < 3)),
        _check_row("unit_first_row", (
            f"A_{n+1}(1,{j+1}) = {mat[0][j]}"
            for n, mat in enumerate(seq.A)
            for j in range(seq.k[n + 1])
            if mat[0][j] != 1
        )),
        _check_row("column_sums", column_sums()),
        _check_row("entry_floor_patches", entry_floor(lambda n: seq.k[n + 1], "k"), toy),
        # r_n sqrt(q_{n+1}) exactly
        _check_row("entry_floor_scale", entry_floor(lambda n: seq.r[n] * seq.p[n + 1], "r*p"), toy),
        _check_row("stripe_ratio", (
            f"r_n p_n >= p_n+1 at step {[n + 1]}" for n in steps if seq.r[n] * seq.p[n] >= seq.p[n + 1]
        )),
        _check_row("expansion_headroom", (
            f"headroom inequality fails at step {[n + 1]}"
            for n in steps
            if not _headroom_ok(seq.p[n], seq.p[n + 1], seq.r[n], seq.k[n])
        ), toy),
        _check_row("inverse_limit", (), note="not machine-checkable; see measure-vector diagnostics"),
    ))


def make_choquet_seq(
    num_extreme_points: int,
    depth: int,
    mode: str = "rigorous",
    ratio_cap: int = 128,
) -> ChoquetSeq:
    """Sizes plus matrices ready for building, ``depth`` levels deep.

    Rigorous mode walks the canonical sequences and passes to the greedy
    feasible subsequence (consecutive canonical steps never leave room for
    the scale floor); toy mode caps growth ratios instead.
    """
    e = num_extreme_points
    k = e + 1
    dim = e - 1
    if mode == "rigorous":
        sizes = p_sequence(dim, max(depth * 3, depth + 2), k=k)
        idx = _feasible_subsequence(sizes, k, depth)
        sub = ChoquetSeq(dim, tuple(sizes.p[i] for i in idx), tuple(sizes.r[i] for i in idx), (k,) * depth)
    elif mode == "toy":
        sub = toy_p_sequence(dim, depth, ratio_cap=ratio_cap, k=k)
    else:
        raise ValueError("mode must be 'rigorous' or 'toy'")
    return replace(sub, A=make_finite_dim_matrices(e, sub, mode=mode), mode=mode)


def _feasible_subsequence(sizes: ChoquetSeq, k: int, depth: int) -> list[int]:
    idx = [0]
    while len(idx) < depth:
        i = idx[-1]
        j = i + 1
        while True:
            if j >= len(sizes.p):
                raise SimplexBuildError(
                    "canonical sequence too short for a feasible subsequence; "
                    "increase its length"
                )
            if (
                sizes.q[j] % sizes.q[i] == 0
                and (sizes.p[j] // sizes.p[i]) % 2 == 0
                and _step_entries(sizes, i, j, k)[2] is not None
            ):
                idx.append(j)
                break
            j += 1
    return idx


# ----------------------------------------------------------------------
# separation and cardinalities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationWitness:
    i0: int  # 1-based row
    columns: dict[int, tuple[int, int]]  # level -> (j_dense, j_sparse), 1-based
    dbar: Fraction
    dbar_prime: Fraction


def find_separating_coordinates(seq: ChoquetSeq, depth: int | None = None) -> SeparationWitness:
    """Search the normalized column products for a separating row.

    Picks the row with the largest column spread at the deepest level, then
    records, per level, the columns (>= 2, the first two columns being
    equal) attaining the extreme normalized values.  Raises when every row
    has zero spread (the simplex may be a singleton).
    """
    depth = seq.depth if depth is None else depth
    if depth < 2:
        raise ValueError("need at least 2 levels")
    prods = _prefix_products(seq, depth - 1)  # prods[n] = A_1..A_n
    deep = prods[depth - 1]
    k1 = seq.k[0]
    best_i0, best_spread = None, Fraction(0)
    for i in range(k1):
        vals = [Fraction(deep[i][j], seq.q[depth - 1]) for j in range(len(deep[0]))]
        spread = max(vals) - min(vals)
        if spread > best_spread:
            best_i0, best_spread = i, spread
    if best_i0 is None:
        raise SimplexBuildError("no separation found at this depth")
    cols: dict[int, tuple[int, int]] = {}
    dbar, dbarp = None, None
    for t in range(2, depth + 1):
        mat = prods[t - 1]
        vals = [Fraction(mat[best_i0][j], seq.q[t - 1]) for j in range(len(mat[0]))]
        lower = list(range(1, len(vals)))  # column indices >= 2 (0-based >= 1)
        jd = max(lower, key=lambda j: (vals[j], -j))
        js = min(lower, key=lambda j: (vals[j], j))
        cols[t] = (jd + 1, js + 1)
        dbar = vals[jd] if dbar is None else min(dbar, vals[jd])
        dbarp = vals[js] if dbarp is None else max(dbarp, vals[js])
    if not dbar > dbarp:
        raise SimplexBuildError("no separation found at this depth")
    return SeparationWitness(best_i0 + 1, cols, dbar, dbarp)


def patch_cardinality(seq: ChoquetSeq, i0: int, n: int, k: int) -> int:
    """Exact point count of the level-n patch k from the block counts.

    count = A_1..A_{n-1}(i0, k) (p1^2/2 - p1/2 - 2)
            + (p_n^2/p_1^2)(p1^2/2 + p1/2 + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    p1 = seq.p[0]
    prod = seq.product(n - 1)
    a = prod[i0 - 1][k - 1]
    c_minus = p1 * p1 // 2 - p1 // 2 - 2
    c_plus = p1 * p1 // 2 + p1 // 2 + 1
    blocks = seq.q[n - 1] // seq.q[0]
    return a * c_minus + blocks * c_plus


def density_bounds(seq: ChoquetSeq, witness: SeparationWitness) -> tuple[Fraction, Fraction]:
    """The exact pair d > d' bracketing the designated patch densities."""
    p1 = seq.p[0]
    c_minus = Fraction(p1 * p1, 2) - Fraction(p1, 2) - 2
    c_plus = Fraction(p1 * p1, 2) + Fraction(p1, 2) + 1
    d = witness.dbar * c_minus + c_plus / (p1 * p1)
    dp = witness.dbar_prime * c_minus + c_plus / (p1 * p1)
    return d, dp


# ----------------------------------------------------------------------
# patch construction
# ----------------------------------------------------------------------

def initial_simplex_patches(p1: int, k1: int, i0: int) -> list[Patch]:
    """The k1 starting patches on a p1 x p1 support.

    Patch i0 is full minus its top-right cell; every other patch k keeps
    the even columns, the bottom row, and one marker cell in an odd column:
    the k-th of the slots (column 1, rows 1..p1-1), then (column 3, rows
    1..p1-1), and so on.  All are pairwise distinct and keep even columns
    full.
    """
    if p1 < 4 or p1 % 2:
        raise ValueError("p1 must be an even integer >= 4")
    if k1 < 3:
        raise ValueError("k1 must be at least 3")
    if not 1 <= i0 <= k1:
        raise ValueError("i0 out of range")
    if max(k for k in range(1, k1 + 1) if k != i0) > (p1 - 1) * p1 // 2:
        raise SimplexBuildError("k1 too large for p1: marker cells would leave the support")
    out: list[Patch] = []
    for k in range(1, k1 + 1):
        cells = np.zeros((p1, p1), dtype=np.uint8)
        if k == i0:
            cells[:, :] = 1
            cells[p1 - 1, p1 - 1] = 0
        else:
            cells[:, 0::2] = 1
            cells[0, :] = 1
            col, row = divmod(k - 1, p1 - 1)
            cells[1 + row, 1 + 2 * col] = 1
        out.append(Patch(cells, (0, 0)))
    return out


StripeRule = Literal["literal", "scaled"]


def stripe_choice(s: int, p_n: int, p_next: int, r_n: int, rule: StripeRule) -> bool:
    """True when signed block column s takes the dense stripe patch.

    ``literal`` applies floor(s p_{n+1} / r_n) even as displayed;
    ``scaled`` applies floor(s p_n r_n / p_{n+1}) even, which splits the
    stripe into r_n runs of equal width (half dense, half sparse when r_n
    is even).
    """
    num, den = _stripe_slope(p_n, p_next, r_n, rule)
    return s * num // den % 2 == 0


def _stripe_slope(p_n: int, p_next: int, r_n: int, rule: StripeRule) -> tuple[int, int]:
    """(num, den): the stripe rule's value at column s is floor(s num / den)."""
    if rule == "literal":
        return p_next, r_n
    if rule == "scaled":
        return p_n * r_n, p_next
    raise ValueError(f"unknown stripe rule {rule!r}")


def _stripe_row(side: int, p_n: int, p_next: int, r_n: int, rule: StripeRule,
                j_dense: int, j_sparse: int) -> Edge:
    """The :func:`stripe_choice` row over block columns -side/2 .. side/2 - 1.

    floor(s num / den) gains an even 2 num / g when s gains 2 den / g
    (g = gcd(num, den)), so the row repeats a period of that length, whose
    runs are read between the columns where the floor changes.
    """
    num, den = _stripe_slope(p_n, p_next, r_n, rule)
    period = min(side, 2 * den // math.gcd(num, den))
    reps, rest = divmod(side, period)

    def runs(s: int, n: int) -> tuple[tuple[int, int], ...]:
        out, end = [], s + n
        while s < end:
            v = s * num // den
            nxt = min(end, -(-(v + 1) * den // num))  # the first column past value v
            out.append((j_sparse if v % 2 else j_dense, nxt - s))
            s = nxt
        return _merged(out)

    return Edge(((runs(-(side // 2), period), reps),) + (((runs(-(side // 2), rest), 1),) if rest else ()))


def _merged(runs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """``runs`` with consecutive runs of one id joined."""
    return tuple((v, sum(n for _, n in same)) for v, same in groupby(runs, key=itemgetter(0)))


def _row_major_bands(runs: tuple[tuple[int, int], ...], cols: int) -> list[tuple[Edge, int]]:
    """The bands of ``runs`` laid out row-major in rows of ``cols`` cells: the
    rows inside a run are one band, a row where the runs change is one."""
    bands, row, filled = [], [], 0
    for v, n in runs:
        if filled:  # finish the row the runs before began
            take = min(n, cols - filled)
            row.append((v, take))
            filled, n = filled + take, n - take
            if filled < cols:
                continue
            bands.append((Edge(((tuple(row), 1),)), 1))
        if n >= cols:
            bands.append((Edge(((((v, cols),), 1),)), n // cols))
        row, filled = [(v, n % cols)], n % cols
    return bands


def build_simplex_level(
    seq: ChoquetSeq,
    n: int,
    j_dense: int,
    j_sparse: int,
    rule: StripeRule = "literal",
) -> Level:
    """Arrangements of level n+1 from the counts A_n (n is 1-based).

    Per output column k: the top-right cell holds patch 1 (its only use,
    since A_n(1, k) = 1); the bottom r_n block-rows follow the stripe rule
    over (j_dense, j_sparse); the first k_n free cells in row-major order
    hold the distinctness device (the bits of k-1 choose dense/sparse); the
    remaining free cells are filled greedily, smallest id first, to meet
    the counts exactly.  Each arrangement is built as bands, the stripe and
    the rows of those row-major runs, with no grid, so any side builds.
    """
    if not 1 <= n <= len(seq.A):
        raise ValueError("no matrix for that step")
    if j_dense == j_sparse or min(j_dense, j_sparse) < 2:
        raise SimplexBuildError("stripe patches must be distinct ids >= 2")
    mat = seq.A[n - 1]
    k_n, k_next = seq.k[n - 1], seq.k[n]
    if max(j_dense, j_sparse) > k_n:
        raise SimplexBuildError("stripe patch id out of range")
    if k_next > 2**k_n:
        raise SimplexBuildError("cannot differentiate that many outputs")
    l_n = seq.l[n - 1]
    side = 2 * (l_n + 1)  # blocks per side
    r_n = seq.r[n - 1]
    if r_n >= side:
        raise SimplexBuildError("stripe taller than the frame")
    stripe = _stripe_row(side, seq.p[n - 1], seq.p[n], r_n, rule, j_dense, j_sparse)
    free = (side - r_n) * side - 1  # the cells above the stripe but the top-right one
    arrs: list[Arrangement] = []
    for k in range(1, k_next + 1):
        device = [j_dense if (k - 1) >> b & 1 else j_sparse for b in range(min(k_n, free))]
        used = Counter(device) + Counter({1: 1}) + Counter({pid: r_n * c for pid, c in stripe.tally().items()})
        need = [0] * (k_n + 1)
        for i in range(1, k_n + 1):
            need[i] = mat[i - 1][k - 1] - used[i]
            if need[i] < 0:
                raise SimplexBuildError(
                    f"output {k}: A_{n}({i},{k}) = {mat[i-1][k-1]} cannot cover the "
                    f"{used[i]} forced blocks of patch {i}"
                )
        if sum(need) != free - len(device):
            raise SimplexBuildError(
                f"output {k}: counts sum to {sum(need) + sum(used.values())} but the frame "
                f"holds {side * side} blocks"
            )
        fill = [(pid, 1) for pid in device] + [(i, c) for i, c in enumerate(need) if c] + [(1, 1)]
        arrs.append(Arrangement(((stripe, r_n), *_row_major_bands(_merged(fill), side))))
    return Level(
        arrs,
        anchor=(l_n + 1, l_n + 1),
        meta={
            "kind": "simplex",
            "j_dense": str(j_dense),
            "j_sparse": str(j_sparse),
            "r": str(r_n),
            "rule": rule,
        },
    )


# ----------------------------------------------------------------------
# user-supplied matrices
# ----------------------------------------------------------------------

def read_matrices_file(path) -> ChoquetSeq:
    """Explicit transition matrices, row-per-line.

    Format: a ``p`` line with the scale sequence, an ``r`` line with the
    stripe counts (one per step), then one ``matrix <rows> <cols>`` block
    per step, every number a positive integer.  Matrix n must be
    k_n x k_{n+1}; validation is reported by :func:`validate_choquet_seq`,
    not silently assumed.
    """
    with open(path) as fh:
        lines = _data_lines(fh.read())
    try:
        return _parse_matrices(lines)
    except PatchFormatError as exc:  # a line that is not its layout
        raise SimplexBuildError(str(exc)) from None


def _parse_matrices(lines: list[str]) -> ChoquetSeq:
    p: list[int] | None = None
    r: list[int] | None = None
    mats: list[IntMatrix] = []
    dim: int | None = None
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "p":
            p = _positive_fields(lines[i], "p" + " #" * (len(parts) - 1))
            i += 1
        elif parts[0] == "r":
            r = _positive_fields(lines[i], "r" + " #" * (len(parts) - 1))
            i += 1
        elif parts[0] == "dim":
            (dim,) = _positive_fields(lines[i], "dim #")
            i += 1
        elif parts[0] == "matrix":
            rows, cols = _positive_fields(lines[i], "matrix # #")
            body = lines[i + 1 : i + 1 + rows]
            if len(body) != rows:
                raise SimplexBuildError("truncated matrix block")
            mat = [_positive_fields(ln, " #" * len(ln.split())) for ln in body]
            if any(len(row) != cols for row in mat):
                raise SimplexBuildError("matrix row width mismatch")
            mats.append(mat)
            i += 1 + rows
        else:
            raise SimplexBuildError(f"unexpected line {lines[i]!r}")
    if p is None or not mats:
        raise SimplexBuildError("need a p line and at least one matrix block")
    if len(p) != len(mats) + 1:
        raise SimplexBuildError("need exactly one matrix per consecutive scale pair")
    if r is None:
        r = [math.factorial(n) for n in range(1, len(p) + 1)]
    if len(r) < len(p) - 1:
        raise SimplexBuildError("need one stripe count per step")
    for i_, (a, b) in enumerate(zip(p, p[1:])):
        if b % a or (b // a) % 2:
            raise SimplexBuildError(f"scale step {i_ + 1}: ratio must be even")
    k = [len(mats[0])] + [len(m[0]) for m in mats]
    for n, m in enumerate(mats):
        if len(m) != k[n]:
            raise SimplexBuildError(f"matrix {n + 1} row count disagrees with matrix {n}")
    return ChoquetSeq(dim, tuple(p), tuple(r[: len(p)]), tuple(k), mats, mode="toy")


def _positive_fields(line: str, layout: str) -> list[int]:
    """:func:`_fields` of a matrices-file line, each one a positive integer."""
    vals = _fields(line, layout)
    if min(vals, default=1) < 1:
        raise SimplexBuildError(f"fields must be positive integers: {line!r}")
    return vals


def read_simplex_spec(path) -> "int | ChoquetSeq":
    """`extreme_points <e>` or `matrices <path>` (relative to the spec file)."""
    with open(path) as fh:
        lines = _data_lines(fh.read())
    if not lines:
        raise SimplexBuildError("empty simplex spec file")
    key, val = (lines[0].split(None, 1) + [""])[:2]
    if key == "extreme_points" and val.isdecimal():
        return int(val)
    if key == "matrices" and val:
        return read_matrices_file(os.path.join(os.path.dirname(path), val))
    raise SimplexBuildError(f"expected 'extreme_points <e>' or 'matrices <path>', got {lines[0]!r}")


@dataclass
class ChoquetBuild:
    spec: HierarchySpec
    seq: ChoquetSeq
    witness: SeparationWitness


def build_choquet_spec(
    num_extreme_points: int,
    depth: int,
    mode: str = "toy",
    rule: StripeRule = "literal",
    ratio_cap: int = 128,
    seq: ChoquetSeq | None = None,
) -> ChoquetBuild:
    """Matrices, separation witness, and the patch hierarchy, depth levels deep."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    seq = make_choquet_seq(num_extreme_points, depth, mode, ratio_cap) if seq is None else seq
    if depth > seq.depth:
        raise ValueError(f"sequence holds {seq.depth} levels, requested {depth}")
    witness = find_separating_coordinates(seq, depth)
    i0 = witness.i0
    base = initial_simplex_patches(seq.p[0], seq.k[0], i0)
    levels = []
    for n in range(1, depth):
        if n == 1:
            jd = i0 if i0 >= 2 else 2
            js = next(j for j in range(2, seq.k[0] + 1) if j != jd)
        else:
            jd, js = witness.columns[n]
        levels.append(build_simplex_level(seq, n, jd, js, rule))
    spec = HierarchySpec(base, levels, kind="choquet", anchored=False)
    return ChoquetBuild(spec, seq, witness)


# ----------------------------------------------------------------------
# measure vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureVector:
    level: int
    values: tuple[Fraction, ...]


def measure_vectors(
    seq: ChoquetSeq,
    depth: int,
    terminal: int | Literal["barycenter"],
) -> list[MeasureVector]:
    """Back-propagate a terminal measure vector through the matrices.

    ``terminal`` is a 1-based vertex index (mu = e_j / q_depth) or
    "barycenter".  The recursion mu_n = A_n mu_{n+1} holds with residual
    exactly zero by construction; each mu_n lies in the simplex spanned by
    e_i / q_n.
    """
    if not 1 <= depth <= seq.depth:
        raise ValueError("depth out of range")
    kd, qd = seq.k[depth - 1], seq.q[depth - 1]
    if terminal == "barycenter":
        mu = [Fraction(1, kd * qd)] * kd
    else:
        if not 1 <= terminal <= kd:
            raise ValueError("terminal vertex outside the simplex")
        mu = [Fraction(1, qd) if j == terminal - 1 else Fraction(0) for j in range(kd)]
    out = [MeasureVector(depth, tuple(mu))]
    for n in range(depth - 1, 0, -1):
        mu = _imat_vec(seq.A[n - 1], mu)
        if any(v < 0 for v in mu) or sum(mu) != Fraction(1, seq.q[n - 1]):
            raise AssertionError("measure recursion left the simplex")
        out.append(MeasureVector(n, tuple(mu)))
    out.reverse()
    return out


def measure_residual(seq: ChoquetSeq, vectors: list[MeasureVector]) -> Fraction:
    """Max norm of mu_n - A_n mu_{n+1} over the chain (exactly zero)."""
    worst = Fraction(0)
    by_level = {v.level: v for v in vectors}
    for n in range(min(by_level), max(by_level)):
        lhs = by_level[n].values
        rhs = _imat_vec(seq.A[n - 1], by_level[n + 1].values)
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    return worst
