"""Uniquely-ergodic refinement: mix the two outputs of each construction
step so that block frequencies converge to 1/2.

Every step matrix here is symmetric bistochastic, [[1/2+d, 1/2-d],
[1/2-d, 1/2+d]]; composing two such matrices multiplies offsets by
2*other, and the 3x3 mixing arrangement contributes offset exactly 1/18,
so the composed offset shrinks at least 9-fold per mixed level.  With the
canonical starting pair the point density converges to 13/16, and at any
finite level it equals 13/16 - offset * (d2 - d1) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .hierarchy import (
    SLIDING,
    Arrangement,
    HierarchySpec,
    Level,
    _imat_mul,
    block_frequency_matrix,
    count_occurrences,
)
from .nonrect import (
    BuildParams,
    LSchedule,
    Rat,
    StepRecord,
    _build_steps,
    _frac,
    counting_schedule,
)
from .patch import Patch


def delta_product(alpha: Rat, beta: Rat) -> Fraction:
    """Offset of the product of two symmetric bistochastic 2x2 matrices."""
    a, b = _frac(alpha), _frac(beta)
    if not (0 <= a <= Fraction(1, 2) and 0 <= b <= Fraction(1, 2)):
        raise ValueError("offsets must lie in [0, 1/2]")
    return 2 * a * b


@dataclass(frozen=True)
class MixMatrix:
    """Symmetric bistochastic 2x2 matrix determined by its offset."""

    delta: Fraction

    def __post_init__(self):
        if not (0 <= self.delta <= Fraction(1, 2)):
            raise ValueError("offset must lie in [0, 1/2]")

    def entries(self) -> list[list[Fraction]]:
        h = Fraction(1, 2)
        return [[h + self.delta, h - self.delta], [h - self.delta, h + self.delta]]


def step_offset(count_matrix: list[list[int]]) -> Fraction:
    """Offset of a 2x2 integer count matrix; raises if it is not of the
    symmetric bistochastic form."""
    (a, b), (c, d) = count_matrix
    if a != d or b != c:
        raise ValueError("count matrix is not role-symmetric")
    total = a + c
    if total != b + d:
        raise ValueError("count matrix columns disagree")
    delta = Fraction(a, total) - Fraction(1, 2)
    if delta < 0:
        raise ValueError("diagonal must dominate")
    return delta


def mix_level() -> Level:
    """The 3x3 mixing arrangement: each output keeps the other patch at its
    four corners (5 of one kind, 4 of the other; offset exactly 1/18)."""
    a1 = Arrangement.dense(np.array([[2, 1, 2], [1, 1, 1], [2, 1, 2]], dtype=np.int64))
    a2 = Arrangement.dense(np.array([[1, 2, 1], [2, 2, 2], [1, 2, 1]], dtype=np.int64))
    return Level([a1, a2], anchor=(1, 1), meta={"kind": "mix"})


@dataclass
class UEBuild:
    spec: HierarchySpec
    level_offsets: list[Fraction]  # offset of each step matrix, levels 2..top
    steps: list[StepRecord]

    def offset_between(self, m: int, n: int) -> Fraction:
        """Offset of the composed transition matrix from level m to level n."""
        if not (1 <= m < n <= len(self.level_offsets) + 1):
            raise ValueError("need 1 <= m < n <= top level")
        out = self.level_offsets[m - 1]
        for d in self.level_offsets[m : n - 1]:
            out = delta_product(out, d)
        return out

    def limit_density(self) -> Fraction:
        d1 = self.spec.density(1, 1)
        d2 = self.spec.density(1, 2)
        return (d1 + d2) / 2

    def density_bracket(self, level: int) -> tuple[Fraction, Fraction]:
        """Exact bracket for both level densities: limit +- offset*(d2-d1)."""
        mean = self.limit_density()
        if level == 1:
            off = Fraction(1, 2)
        else:
            off = self.offset_between(1, level)
        gap = abs(self.spec.density(1, 2) - self.spec.density(1, 1))
        return (mean - off * gap, mean + off * gap)


def build_ue_spec(
    schedule: LSchedule | None,
    depth: int,
    mode: str = "toy",
    params: BuildParams | None = None,
    max_levels: int = 64,
) -> UEBuild:
    """Alternation step(s) followed by a mixing level, ``depth`` times.

    Every appended level's count matrix is verified to be of the symmetric
    bistochastic form (the two outputs of each sub-step use the same block
    counts with roles swapped); the build fails loudly if not.  Every step
    closes with the same mixing level object, so its two arrangements are
    built once per build.
    """
    schedule = counting_schedule(depth) if schedule is None else schedule
    build = _build_steps("ue", schedule, depth, mode, params, max_levels, closing=mix_level())
    spec = build.spec
    offsets = [step_offset(spec.step_count_matrix(t)) for t in range(2, spec.num_levels + 1)]
    return UEBuild(spec, offsets, build.steps)


# ----------------------------------------------------------------------
# frequency reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FreqRow:
    level: int
    pid: int
    count: int
    density: Fraction
    bracket_lo: Fraction
    bracket_hi: Fraction


@dataclass(frozen=True)
class FreqReport:
    needle_id: int | None  # base patch id when the needle is one, else None
    base_level: int
    rows: tuple[FreqRow, ...]

    def spread(self, level: int) -> Fraction:
        vals = [r.density for r in self.rows if r.level == level]
        return max(vals) - min(vals)

    def levels(self) -> list[int]:
        return sorted({r.level for r in self.rows})


def frequency_convergence_report(
    spec: HierarchySpec,
    needle: Patch,
    level_lo: int,
    level_hi: int,
    cap: int | None = None,
) -> FreqReport:
    """Exact sliding densities of ``needle`` per (level, patch) with brackets.

    Densities are counts per cell of the support.  Brackets propagate the
    base level's exact densities through the block-frequency matrices; the
    upper bracket adds the boundary band 2*max(w,h)/side(base level), which
    dominates every straddling placement.  A needle that never occurs
    yields all-zero rows.
    """
    if not (1 <= level_lo <= level_hi <= spec.num_levels):
        raise ValueError("bad level range")
    w, h = needle.width, needle.height
    if w > spec.side(level_lo) or h > spec.side(level_lo):
        raise ValueError("needle does not fit the base level")
    nid = None
    for i in range(1, spec.k(level_lo) + 1):
        if level_lo == 1 and spec.base[i - 1].same_content(needle):
            nid = i
    memo: dict = {}  # one seam memo for every row: they count the same needle
    base_counts = [
        count_occurrences(spec, needle, level_lo, i, SLIDING, cap=cap, _memo=memo)
        for i in range(1, spec.k(level_lo) + 1)
    ]
    base_cells = spec.cell_count(level_lo)
    base_dens = [Fraction(c, base_cells) for c in base_counts]
    band = Fraction(2 * max(w, h), spec.side(level_lo))
    rows: list[FreqRow] = []
    for t in range(level_lo, level_hi + 1):
        cells = spec.cell_count(t)
        lows = None if t == level_lo else _imat_mul([base_dens], block_frequency_matrix(spec, level_lo, t))[0]
        for j in range(1, spec.k(t) + 1):
            cnt = count_occurrences(spec, needle, t, j, SLIDING, cap=cap, _memo=memo)
            dens = Fraction(cnt, cells)
            lo, hi = (dens, dens) if lows is None else (lows[j - 1], lows[j - 1] + band)
            rows.append(FreqRow(t, j, cnt, dens, lo, hi))
    return FreqReport(nid, level_lo, tuple(rows))
