"""Implicit substitution hierarchies over lattice patches.

A hierarchy holds concrete patches at level 1 and, at each higher level,
one arrangement grid per patch mapping grid cells to patch ids of the
level below.  Patches are only materialized on demand (against a memory
cap); occurrence counting works on the implicit structure:

* block-aligned counts come from exact integer transition-matrix products;
* sliding counts recurse through the hierarchy.  A placement that crosses
  a seam between two children is counted on the seam itself: the seam
  a|b at level t is the stack of the seams between the edge children of
  a and b at level t-1, plus the 2x2 junctions between consecutive ones
  (the collared-tile recursion of Anderson and Putnam).  Seams and
  junctions are memoized by the ids they join, and only needle-sized
  strips and corner tiles at the bottom of the recursion are ever
  materialized, so the cost grows with depth, not with side length.

Every arrangement is one model, a list of bands of equal rows (see
:class:`Arrangement`), so grids far too large to store keep a few bands of
a few runs each, and the seam tables the recursion reads follow from the
bands.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_right
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, groupby
from typing import Iterator

import numpy as np

from .patch import (
    Patch, PatchFormatError, Point, _fields, _strip_rows, dumps_patch, parse_patch_lines, write_cells,
)

BLOCK_ALIGNED = "block_aligned"
SLIDING = "sliding"


class CapacityError(RuntimeError):
    """Materialization would exceed the configured cell cap."""


def cell_cap(cap: int | None = None) -> int:
    """The cell cap in force: ``cap``, or else ``DELONE_CELL_CAP`` as set
    now (default 2**28).  One that is not a positive integer is a ValueError."""
    raw = os.environ.get("DELONE_CELL_CAP", str(2**28)) if cap is None else str(cap)
    if not raw.strip().isdecimal() or int(raw) < 1:
        name = "DELONE_CELL_CAP" if cap is None else "the cell cap"
        raise ValueError(f"{name} must be a positive integer, not {raw!r}")
    return int(raw)


def check_cells(need: int, what: str, cap: int | None = None) -> None:
    """The one cell-cap check: every path that allocates cells calls it
    first, and refuses ``need`` cells for ``what`` past ``cell_cap(cap)``."""
    cap = cell_cap(cap)
    if need > cap:
        raise CapacityError(f"{what} requires {need} cells (cap {cap})")


class SpecError(ValueError):
    """Structurally invalid hierarchy description."""


# ----------------------------------------------------------------------
# lines of child ids
# ----------------------------------------------------------------------

Runs = tuple[tuple[Hashable, int], ...]


@dataclass(frozen=True)
class Edge:
    """A line of child ids: an arrangement row, read left to right, or a
    column, read bottom to top.  It is its ``pieces`` in order, each the
    runs ``(id, length)`` of a period and the number of times the period
    repeats, Python ints, so periodic lines of astronomically long grids
    stay small.  Ids may be any hashable: :meth:`pair` zips two lines.
    """

    pieces: tuple[tuple[Runs, int], ...]

    @cached_property
    def _index(self) -> list[tuple[int, int, list[int], list]]:
        """Per piece: its length, its period, and its runs' starts and ids."""
        out = []
        for runs, reps in self.pieces:
            starts = list(accumulate((n for _, n in runs), initial=0))
            out.append((starts[-1] * reps, starts[-1], starts[:-1], [v for v, _ in runs]))
        return out

    @property
    def length(self) -> int:
        return sum(size for size, *_ in self._index)

    def at(self, pos: int) -> Hashable:
        """The id at position ``pos``."""
        for size, span, starts, ids in self._index:
            if pos < size:
                return ids[bisect_right(starts, pos % span) - 1]
            pos -= size
        raise IndexError("position past the end of the line")

    def tally(self) -> dict:
        """Number of positions holding each id."""
        return _sum((v, n * reps) for runs, reps in self.pieces for v, n in runs)

    def steps(self) -> dict:
        """Number of consecutive positions holding each (id, next id): inside
        runs, between the runs of a period, across the repetitions of a
        period, and between pieces."""
        pieces = self.pieces
        return _sum(chain(
            (((v, v), (n - 1) * reps) for runs, reps in pieces for v, n in runs),
            (((u, v), reps) for runs, reps in pieces for (u, _), (v, _) in zip(runs, runs[1:])),
            (((runs[-1][0], runs[0][0]), reps - 1) for runs, reps in pieces),
            (((a[-1][0], b[0][0]), 1) for (a, _), (b, _) in zip(pieces, pieces[1:])),
        ))

    @property
    def const(self) -> Hashable | None:
        """The only id on the line, or None when there are several."""
        ids = {v for runs, _ in self.pieces for v, _ in runs}
        return next(iter(ids)) if len(ids) == 1 else None

    def pair(self, other: "Edge", cap: int | None = None) -> "Edge":
        """The line of (self id, other id) at equal positions of two lines
        of one length.

        A line of one id pairs with the other line's pieces as they are, so
        a periodic row stays small whatever its length.  Other lines are
        zipped run by run (see :meth:`_runs`), the write-out charged to ``cap``.
        """
        c = other.const
        if c is not None:
            return Edge(tuple((tuple(((v, c), n) for v, n in runs), reps) for runs, reps in self.pieces))
        c = self.const
        if c is not None:
            return Edge(tuple((tuple(((c, v), n) for v, n in runs), reps) for runs, reps in other.pieces))
        return Edge(((_zip_runs(self._runs(cap), other._runs(cap)), 1),))

    def _runs(self, cap: int | None) -> Runs:
        """The runs of the line written out.  Writing out repetitions is
        charged to ``cap``, one cell a run."""
        if any(reps > 1 for _, reps in self.pieces):
            check_cells(sum(len(runs) * reps for runs, reps in self.pieces), "writing out a periodic line", cap)
        return sum((runs * reps for runs, reps in self.pieces), ())


def _sum(items) -> dict:
    """Nonnegative counts of ``items`` (key, count) summed by key, zeros left out."""
    out: dict = {}
    get = out.get
    for key, n in items:
        if n:
            out[key] = get(key, 0) + n
    return out


def _zip_runs(r1: Runs, r2: Runs) -> Runs:
    out = []
    i = j = 0
    (u, n), (v, m) = r1[0], r2[0]
    while True:
        step = min(n, m)
        out.append(((u, v), step))
        n, m = n - step, m - step
        if n == 0:
            i += 1
            if i == len(r1):
                return tuple(out)
            u, n = r1[i]
        if m == 0:
            j += 1
            v, m = r2[j]


# ----------------------------------------------------------------------
# arrangements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Arrangement:
    """The grid of child ids of one patch, as bands of equal rows.

    ``bands`` runs bottom to top, each a row (an :class:`Edge`) and the
    number of consecutive grid rows holding it.  The seam tables follow
    from the bands: the arrangement's own (see :meth:`_tables`) and its
    seam with each partner it is laid beside (see :meth:`_seam`).  They are
    built on first use and kept on the object, so a spec that shares one
    object among its levels (as :func:`loads_spec` does for repeated
    arrangements) builds them once per distinct arrangement and per pair.
    They grow with bands x runs and with the distinct pairs and quads, not
    with cells.
    """

    bands: tuple[tuple[Edge, int], ...]
    rows: int = field(init=False)
    cols: int = field(init=False)
    _tally: dict = field(init=False, repr=False, compare=False)  # cells holding each child id
    _corners: dict = field(init=False, repr=False, compare=False)  # (col, row) -> id
    _kept: tuple | None = field(init=False, repr=False, compare=False)  # the seam tables, once built
    _seams: dict = field(init=False, repr=False, compare=False)  # (kind, id(partner)) -> kept seam

    def __post_init__(self):
        lengths, tally, rows = set(), {}, 0
        for row, m in self.bands:
            if m < 1:
                raise SpecError("band multiplicities must be at least 1")
            length = 0
            for runs, reps in row.pieces:
                for v, n in runs:
                    length += n * reps
                    tally[v] = tally.get(v, 0) + n * reps * m
            lengths.add(length)
            rows += m
        if len(lengths) != 1 or min(lengths) < 1:
            raise SpecError("an arrangement needs bands, with rows of one length of at least 1")
        last, (low, _), (high, _) = lengths.pop() - 1, self.bands[0], self.bands[-1]
        corners = {(0, 0): low.pieces[0][0][0][0], (last, 0): low.pieces[-1][0][-1][0],
                   (0, rows - 1): high.pieces[0][0][0][0], (last, rows - 1): high.pieces[-1][0][-1][0]}
        vars(self).update(rows=rows, cols=last + 1, _tally=tally, _corners=corners, _kept=None, _seams={})

    @classmethod
    def dense(cls, grid: np.ndarray) -> "Arrangement":
        """The arrangement of a grid of child ids, row 0 the bottom row."""
        g = np.asarray(grid)
        if g.ndim != 2 or g.size == 0:
            raise SpecError("arrangement grid must be a nonempty matrix")
        return cls(_row_bands(g.tolist()))

    @classmethod
    def altbottom(cls, super_cells: int, blocks: int, main_id: int, alt_id: int) -> "Arrangement":
        """The alternating-bottom-row arrangement, as two bands.

        The grid is square with side ``super_cells * blocks``.  The bottom
        ``super_cells`` rows split into ``blocks`` column groups of width
        ``super_cells``; group b holds ``alt_id`` when b is odd, ``main_id``
        when b is even (so both extreme groups hold ``main_id``).
        Everything above the bottom band holds ``main_id``.  ``blocks`` must
        be odd.  The .dhs writer spells exactly these bands in one line.
        """
        if super_cells < 1 or blocks < 3 or blocks % 2 == 0:
            raise SpecError("need super_cells >= 1 and an odd blocks >= 3")
        if main_id == alt_id:
            raise SpecError("main and alternate ids must differ")
        return cls(_altbottom_bands(super_cells, blocks, main_id, alt_id))

    def id_at(self, col: int, row: int) -> int:
        corner = self._corners.get((col, row))  # the junction recursion asks for these again and again
        if corner is not None:
            return corner
        for line, m in self.bands:
            if row < m:
                return line.at(col)
            row -= m
        raise IndexError("row past the top of the arrangement")

    def id_bounds(self) -> tuple[int, int]:
        return min(self._tally), max(self._tally)

    def counts(self, k_prev: int) -> list[int]:
        """Cells holding each child id 1..k_prev."""
        return [self._tally.get(v, 0) for v in range(1, k_prev + 1)]

    def to_grid(self) -> np.ndarray:
        """The grid, row 0 the bottom row, read-only and in the smallest
        dtype that holds its ids.  Unchecked: its callers charge at least
        its cells to the cap first."""
        dtype = np.result_type(*map(np.min_scalar_type, self.id_bounds()))
        lines = [np.array(_ids(line), dtype) for line, _ in self.bands]
        grid = np.repeat(np.array(lines), [m for _, m in self.bands], axis=0)
        grid.flags.writeable = False
        return grid

    def edge(self, side: str) -> Edge:
        return self._edges[side]

    @cached_property
    def _edges(self) -> dict[str, Edge]:
        last = self.cols - 1
        return {"bottom": self.bands[0][0], "top": self.bands[-1][0],
                "left": Edge(((tuple((line.at(0), m) for line, m in self.bands), 1),)),
                "right": Edge(((tuple((line.at(last), m) for line, m in self.bands), 1),))}

    def _tables(self, cap: int | None = None) -> tuple[dict, dict, dict]:
        """(hpair, vpair, quad) counts, built on first use and kept.  A band
        of multiplicity m holds its row's steps m times, and its m - 1 inner
        row boundaries stack the row on itself; a boundary between two bands
        stacks their rows (an "H" seam, whose junctions are the quads), any
        write-out of the two rows charged to ``cap``."""
        if self._kept is not None:
            return self._kept
        bands = self.bands
        steps = [(row.steps(), m) for row, m in bands]
        stacks = [lower.pair(upper, cap) for (lower, _), (upper, _) in zip(bands, bands[1:])]
        hpairs = _sum((p, n * m) for row, m in steps for p, n in row.items())
        vpairs = _sum(chain((((v, v), n * (m - 1)) for row, m in bands for v, n in row.tally().items()),
                            (item for stack in stacks for item in stack.tally().items())))
        quads = _sum(chain((((u, v, u, v), n * (m - 1)) for row, m in steps for (u, v), n in row.items()),
                           ((_SEAMS["H"][2](p + q), n) for stack in stacks for (p, q), n in stack.steps().items())))
        vars(self)["_kept"] = hpairs, vpairs, quads
        return self._kept

    def _seam(self, kind: str, other: "Arrangement", cap: int | None = None) -> tuple:
        """``(other, pairs, quads)`` of the ``kind`` seam with ``other`` laid
        right of ("V") or above ("H") this arrangement, built on first use
        and kept, keyed by the partner's identity (the entry holds the
        partner, so no other object takes its id).  ``pairs`` are the
        (id, id) tallies along the paired edges, ``quads`` the 2x2
        junctions between consecutive pairs; the write-out of the two edges
        is charged to ``cap``, as in :meth:`_tables`."""
        got = self._seams.get((kind, id(other)))
        if got is None:
            near, far, junction = _SEAMS[kind]
            seam = self.edge(near).pair(other.edge(far), cap)
            got = self._seams[kind, id(other)] = (
                other, list(seam.tally().items()), [(junction(p + q), n) for (p, q), n in seam.steps().items()]
            )
        return got


def _ids(line: Edge) -> list:
    """The ids of ``line`` written out, one a position."""
    return [v for runs, reps in line.pieces for v, n in runs * reps for _ in range(n)]


def _row_bands(rows, read=list) -> tuple[tuple[Edge, int], ...]:
    """The bands of ``rows``, bottom row first, a run of equal rows a band;
    ``read`` gives one row's ids as a list of anything ``int`` takes, once a
    run of equal rows, and :func:`_runs` cuts them with one ``int`` a run,
    so a dense body line costs its runs, not its ids; runs and bands merge
    on the ints (``1`` and ``01`` are one)."""
    lines = ((Edge(((_runs(read(row)), 1),)), len(list(same))) for row, same in groupby(rows))
    return tuple((line, sum(m for _, m in same)) for line, same in groupby(lines, operator.itemgetter(0)))


def _runs(ids: list) -> tuple[tuple[int, int], ...]:
    """(id, length) of the runs of equal ints in the nonempty ``ids``: the
    starts of the pieces of equal ids as given, one ``int`` a piece, and of
    those the starts whose int differs from the piece before."""
    starts = [*compress(range(len(ids)), map(operator.ne, ids, [None, *ids])), len(ids)]
    vals = [int(ids[a]) for a in starts[:-1]]
    keep = [*compress(range(len(vals)), map(operator.ne, vals, [None, *vals])), len(vals)]
    return tuple((vals[a], starts[b] - starts[a]) for a, b in zip(keep, keep[1:]))


def _altbottom_bands(s: int, blocks: int, main_id: int, alt_id: int) -> tuple[tuple[Edge, int], ...]:
    """The two bands of :meth:`Arrangement.altbottom`, unchecked."""
    n = s * blocks
    bottom = Edge(((((main_id, s), (alt_id, s)), blocks // 2), (((main_id, s),), 1)))
    return (bottom, s), (Edge(((((main_id, n),), 1),)), n - s)


def _altbottom_fields(arr: Arrangement) -> tuple[int, int, int, int] | None:
    """``(super_cells, blocks, main_id, alt_id)`` when the bands of ``arr``
    are exactly those :meth:`Arrangement.altbottom` builds from them, else
    None.  They are read off the first piece of the bottom band."""
    (runs, reps), *_ = arr.bands[0][0].pieces
    (main, s), (alt, _) = runs[0], runs[-1]
    if main == alt or arr.bands != _altbottom_bands(s, 2 * reps + 1, main, alt):
        return None
    return s, 2 * reps + 1, main, alt


# ----------------------------------------------------------------------
# hierarchy spec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Level:
    """One hierarchy level above the base: one arrangement per patch id."""

    arrangements: tuple[Arrangement, ...]
    anchor: tuple[int, int] = (0, 0)  # (col, row) cell carrying the previous frame
    n_is_one: bool = False
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        vars(self)["arrangements"] = tuple(self.arrangements)
        if not self.arrangements:
            raise SpecError("level must hold at least one arrangement")
        dims = {(a.rows, a.cols) for a in self.arrangements}
        if len(dims) != 1:
            raise SpecError("arrangements of one level must share dimensions")
        rows, cols = next(iter(dims))
        if rows != cols:
            raise SpecError("frames must be square")
        ac, ar = self.anchor
        if not (0 <= ac < cols and 0 <= ar < rows):
            raise SpecError("anchor cell outside the arrangement grid")

    @property
    def branching(self) -> int:
        return self.arrangements[0].rows


# (side, origin, popcounts, child counts) of one level; child counts hold,
# per arrangement, the number of cells holding each child id (none at level 1)
_FrameRow = tuple[int, Point, tuple[int, ...], tuple[list[int], ...]]


@dataclass(frozen=True)
class HierarchySpec:
    """Base patches plus one :class:`Level` per higher hierarchy level.

    A spec is fixed once built: ``base``, ``levels`` and each level's
    ``arrangements`` are tuples, and the frame table, one
    :data:`_FrameRow` per level, is computed here, at construction.  A
    builder grows a spec with :meth:`extended`, which computes the new
    level's row only; the constructor and ``dataclasses.replace`` compute
    every row.  Each new row checks the child ids of its level: one outside
    1..k of the level below is a :class:`SpecError`.
    """

    base: tuple[Patch, ...]
    levels: tuple[Level, ...] = ()
    kind: str = "custom"
    anchored: bool = False
    meta: dict[str, str] = field(default_factory=dict)
    _rows: InitVar[tuple[_FrameRow, ...] | None] = None  # frame rows of the spec this one extends
    _frames: tuple[_FrameRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, _rows):
        base, levels = tuple(self.base), tuple(self.levels)
        if not base:
            raise SpecError("need at least one base patch")
        sides = {(p.width, p.height) for p in base}
        if len(sides) != 1 or base[0].width != base[0].height:
            raise SpecError("base patches must be squares of equal side")
        frames = list(_rows or [(base[0].width, base[0].origin, tuple(p.popcount() for p in base), ())])
        for lv in levels[len(frames) - 1 :]:
            side, (ox, oy), pops, _ = frames[-1]
            ac, ar = lv.anchor
            k = len(pops)
            for pid, arr in enumerate(lv.arrangements, start=1):
                lo, hi = arr.id_bounds()
                if lo < 1 or hi > k:  # counts would drop the stray cells, and a scan would clip them
                    raise SpecError(f"level {len(frames) + 1} patch {pid} references id outside 1..{k}")
            counts = tuple(arr.counts(k) for arr in lv.arrangements)
            frames.append((
                side * lv.branching,
                (ox - ac * side, oy - ar * side),
                tuple(_imat_vec(counts, pops)),
                counts,
            ))
        vars(self).update(base=base, levels=levels, _frames=tuple(frames))

    def extended(self, level: Level) -> HierarchySpec:
        """This spec with ``level`` on top, sharing the frame rows below it."""
        return HierarchySpec(
            self.base, self.levels + (level,), self.kind, self.anchored, dict(self.meta), _rows=self._frames
        )

    # -- shape accessors -------------------------------------------------

    @property
    def num_levels(self) -> int:
        return 1 + len(self.levels)

    def k(self, level: int) -> int:
        self._check_level(level)
        return len(self.base) if level == 1 else len(self.levels[level - 2].arrangements)

    def side(self, level: int) -> int:
        self._check_level(level)
        return self._frames[level - 1][0]

    def cell_count(self, level: int) -> int:
        return self.side(level) ** 2

    def origin(self, level: int) -> Point:
        """Absolute position of the level's bottom-left cell (frames nest)."""
        self._check_level(level)
        return self._frames[level - 1][1]

    def _check_level(self, level: int) -> None:
        if not (1 <= level <= self.num_levels):
            raise SpecError(f"level {level} outside 1..{self.num_levels}")

    def _check_pid(self, level: int, pid: int) -> None:
        if not (1 <= pid <= self.k(level)):
            raise SpecError(f"patch id {pid} outside 1..{self.k(level)}")

    # -- exact counting --------------------------------------------------

    def step_count_matrix(self, level: int) -> list[list[int]]:
        """Counts of level-(L-1) ids inside level-L arrangements.

        Entry [i][j] counts child patch i+1 in arrangement j+1.
        """
        self._check_level(level)
        if level == 1:
            raise SpecError("level 1 has no arrangement")
        return [list(row) for row in zip(*self._frames[level - 1][3])]

    def count_matrix(self, m: int, n: int) -> list[list[int]]:
        """Block counts of level-m patches inside level-n patches (k_m x k_n)."""
        self._check_level(m)
        self._check_level(n)
        if m > n:
            raise SpecError("need m <= n")
        return _products([self.step_count_matrix(t) for t in range(m + 1, n + 1)], self.k(m))[-1]

    def popcounts(self, level: int) -> list[int]:
        """Occupied cells of each level patch (the base popcounts pushed up
        through the step count matrices), read from the frame table."""
        self._check_level(level)
        return list(self._frames[level - 1][2])

    def density(self, level: int, pid: int) -> Fraction:
        """Occupied fraction of the (implicit) level patch, exact."""
        self._check_pid(level, pid)
        side, _, pops, _ = self._frames[level - 1]
        return Fraction(pops[pid - 1], side * side)


def _imat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The exact product a b of two matrices of ints (or Fractions)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise SpecError("matrix shape mismatch")
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _imat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The exact product a v of a matrix and a column vector."""
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in a]


def _products(mats: Sequence[list[list[int]]], k: int) -> list[list[list[int]]]:
    """[M_1 ... M_t for t = 0..len(mats)], from the k x k identity on."""
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    return list(accumulate(mats, _imat_mul, initial=eye))


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------

def materialize(spec: HierarchySpec, level: int, pid: int, cap: int | None = None) -> Patch:
    """Bit-exact expansion of the arrangement recursion into a patch."""
    return Patch(_cells(spec, level, pid, cap), spec.origin(level))


def write_window(path, spec: HierarchySpec, level: int, pid: int, fmt: str, cap: int | None = None) -> None:
    """Write level patch ``pid`` as ``fmt`` ("pbm" or "dpf"): the bytes of
    :func:`materialize`'s patch, written from :func:`_window_rows` a strip
    at a time, so only the children's stack and two strip-sized buffers are
    held, never the window or its text.  It is charged to the cap whole, as
    ``materialize`` is, before the stack is built or the file opened."""
    side = spec.side(level)
    write_cells(path, fmt, _window_rows(spec, level, pid, cap), side, side, spec.origin(level))


def _cells(spec, level, pid, cap, what: str = "materializing") -> np.ndarray:
    """The cells of level patch ``pid``: :func:`_window_rows` written into one array."""
    blocks, side = _window_rows(spec, level, pid, cap, what), spec.side(level)
    return blocks[0] if level == 1 else _fill(np.empty((side, side), dtype=np.uint8), blocks)


def _window_rows(spec, level, pid, cap, what: str = "materializing") -> Iterable[np.ndarray]:
    """Level patch ``pid`` in blocks of whole rows, top block first: its
    base cells, or :func:`_tile_rows` off the level below's stack.  The pid
    is checked and the cells charged to the cap, as ``f"{what} level
    {level} patch {pid}"``, before any array is allocated."""
    spec._check_pid(level, pid)
    check_cells(spec.cell_count(level), f"{what} level {level} patch {pid}", cap)
    if level == 1:
        return [spec.base[pid - 1].cells]
    return _tile_rows(_level_stack(spec, level - 1), spec.levels[level - 2].arrangements[pid - 1])


def _level_stack(spec, t: int) -> np.ndarray:
    """All k patches of level ``t`` as one (side, k, side) array, patch i at
    ``[:, i - 1]``: the base stacked, then each level's tiles taken from the
    level below, which is dropped once the level above it is built."""
    stack = np.stack([p.cells for p in spec.base], axis=1)
    for lv in spec.levels[: t - 1]:
        # rebinding ``below`` first frees the level under it before the next one is allocated
        below, side = stack, stack.shape[0] * lv.branching
        stack = np.empty((side, len(lv.arrangements), side), dtype=np.uint8)
        for i, arr in enumerate(lv.arrangements):
            _fill(stack[:, i], _tile_rows(below, arr))
    return stack


def _fill(out: np.ndarray, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """``out`` with the blocks of whole rows written in, top block first."""
    top = len(out)
    for block in blocks:
        out[top - len(block) : top] = block
        top -= len(block)
    return out


def _tile_rows(stack: np.ndarray, arr: Arrangement) -> Iterator[np.ndarray]:
    """The cells ``arr`` lays out from the (s, k, s) ``stack`` of its
    children, top rows first, in blocks of whole rows, each inside one row
    of tiles and at most a strip (``patch._strip_rows``) high, stored bottom
    row first like ``Patch.cells``.  The blocks are views of one reused
    buffer, so a reader copies or writes each one out before it asks for
    the next."""
    grid = arr.to_grid().astype(np.intp) - 1
    (rows, cols), s = grid.shape, stack.shape[0]  # a strip of a row of tiles is one take
    n = min(s, _strip_rows(cols * s))
    buf = np.empty((n, cols, s), dtype=np.uint8)
    for r in reversed(range(rows)):
        for y in range(s, 0, -n):
            y0 = max(0, y - n)
            block = buf[: y - y0]
            np.take(stack[y0:y], grid[r], axis=1, out=block, mode="clip")
            yield block.reshape(y - y0, cols * s)


def materialize_region(
    spec: HierarchySpec, level: int, pid: int, x0: int, y0: int, w: int, h: int
) -> np.ndarray:
    """Extract cells [x0, x0+w) x [y0, y0+h) of a level patch without full expansion."""
    side = spec.side(level)
    if x0 < 0 or y0 < 0 or x0 + w > side or y0 + h > side or w <= 0 or h <= 0:
        raise SpecError("region exceeds the patch support")
    if level == 1:
        return spec.base[pid - 1].cells[y0 : y0 + h, x0 : x0 + w]
    return _cut(spec, level - 1, spec.levels[level - 2].arrangements[pid - 1].id_at, x0, y0, w, h)


def _cut(spec, t, id_at, x0, y0, w, h) -> np.ndarray:
    """Cells [x0, x0+w) x [y0, y0+h) of a grid of level-t patches, the
    patch at (col, row) being ``id_at(col, row)``.  Each piece is cut through
    the module-level name ``materialize_region``, so a wrapper of it sees
    every piece."""
    s = spec._frames[t - 1][0]
    out = np.empty((h, w), dtype=np.uint8)
    for crow in range(y0 // s, (y0 + h - 1) // s + 1):
        for ccol in range(x0 // s, (x0 + w - 1) // s + 1):
            cx0, cy0 = ccol * s, crow * s
            ix0, iy0 = max(x0, cx0), max(y0, cy0)
            ix1, iy1 = min(x0 + w, cx0 + s), min(y0 + h, cy0 + s)
            out[iy0 - y0 : iy1 - y0, ix0 - x0 : ix1 - x0] = materialize_region(
                spec, t, id_at(ccol, crow), ix0 - cx0, iy0 - cy0, ix1 - ix0, iy1 - iy0
            )
    return out


# ----------------------------------------------------------------------
# exact scans (shared by the sliding recursion and by export tooling)
# ----------------------------------------------------------------------

# grids of at most this many cells (about 362^2) are scanned as one Python
# int, larger ones in packed words: on x86_64 the int is the faster up to
# about 360^2 cells, the two are even up to about 460^2, and the words win
# from 512^2 (3.6 against 12 ms on a 2916^2 window, 4x4 needle)
_INT_CELLS = 1 << 17


def scan_count(grid: np.ndarray, needle: Patch) -> int:
    """Exact-match placements of ``needle`` at every origin of ``grid``
    (0 when the needle is larger than the grid).

    A placement matches when occupied AND unoccupied cells agree.  The grid
    is packed into bit planes, the occupied cells (``grid != 0``) and the
    empty ones.  A mask of placement origins is ANDed, for each needle
    cell, with the plane of that cell's value shifted back by the cell's
    offset, and the matches are its set bits.  Only bitwise operations and
    popcounts are done, so nothing can overflow.

    A grid of at most ``_INT_CELLS`` cells is one Python int, bit y*W + x,
    so each needle cell is one shift and one AND.  A larger grid goes
    through :func:`_scan_words`.
    """
    H, W = grid.shape
    w, h = needle.width, needle.height
    if w > W or h > H:
        return 0
    if H * W > _INT_CELLS:
        return _scan_words(grid, needle)
    occupied = int.from_bytes(np.packbits(grid, axis=None, bitorder="little").tobytes(), "little")
    empty = occupied ^ ((1 << H * W) - 1)
    # the origins: a row of W - w + 1 ones, doubled up to cover every
    # origin row; origins past them are cleared by the planes, which end
    # at bit H*W
    hit, n = (1 << W - w + 1) - 1, 1
    while n < H - h + 1:
        hit |= hit << n * W
        n *= 2
    for dy, row in enumerate(needle.cells.tolist()):
        for dx, bit in enumerate(row):
            hit &= (occupied if bit else empty) >> (dy * W + dx)
    return hit.bit_count()


def _scan_words(grid: np.ndarray, needle: Patch) -> int:
    """:func:`scan_count` of a grid past ``_INT_CELLS`` cells, in strips of
    rows packed little-endian into uint64 words, bit x of a row being bit
    x % 64 of its word x // 64.  Each row carries one zero slack word, so
    the carry of the last word a shift reads is always there.

    Per strip and needle column dx, each plane needed is shifted by dx bits
    once, and the needle cells of that column AND rows dy.. of it into the
    origin words.  A strip holds ``patch._strip_rows(8 * words)`` origin
    rows, so each of its five buffers, allocated once a call, is at most
    about a strip of bytes; the last strip uses a slice of them.  The
    packed rows ``np.packbits`` returns, copied into the occupied plane,
    are one more array of about a strip of bytes, allocated each strip.
    """
    H, W = grid.shape
    w, h = needle.width, needle.height
    outh, outw = H - h + 1, W - w + 1
    words, out = (W + 63) // 64 + 1, (outw + 63) // 64  # words a row, words of origins a row
    rows = min(outh, _strip_rows(8 * words))
    occupied = np.zeros((rows + h - 1, words), dtype="<u8")
    empty = np.empty_like(occupied)
    shifted = np.empty((rows + h - 1, out), dtype="<u8")
    carry = np.empty_like(shifted)
    hit = np.empty((rows, out), dtype="<u8")
    last = np.uint64((1 << (outw - 1) % 64 + 1) - 1)  # the origins of a row's last origin word
    cols = needle.cells.T.tolist()
    total = 0
    for y in range(0, outh, rows):
        n = min(rows, outh - y)
        if n < rows:  # the last strip is shorter
            m = n + h - 1
            occupied, empty, shifted, carry, hit = occupied[:m], empty[:m], shifted[:m], carry[:m], hit[:n]
        packed = np.packbits(grid[y : y + n + h - 1], axis=1, bitorder="little")
        occupied.view(np.uint8)[:, : packed.shape[1]] = packed
        np.invert(occupied, out=empty)
        hit.fill(~np.uint64(0))
        hit[:, -1] = last
        for dx, col in enumerate(cols):
            q, s = divmod(dx, 64)
            for bit, plane in ((1, occupied), (0, empty)):
                if bit not in col:
                    continue
                tap = plane[:, q : q + out]
                if s:
                    np.right_shift(tap, np.uint64(s), out=shifted)
                    np.left_shift(plane[:, q + 1 : q + out + 1], np.uint64(64 - s), out=carry)
                    tap = np.bitwise_or(shifted, carry, out=shifted)
                for dy, b in enumerate(col):
                    if b == bit:
                        hit &= tap[dy : dy + n]
        total += int(np.bitwise_count(hit).sum())
    return total


def aligned_block_counts(grid: np.ndarray, spec: HierarchySpec, m: int) -> list[int]:
    """Counts of each level-m patch at level-m-aligned positions of ``grid``."""
    s = spec.side(m)
    H, W = grid.shape
    if H % s or W % s:
        raise SpecError("grid is not block aligned at that level")
    check_cells(spec.cell_count(m), f"block-aligned count of level {m} patches")
    tiles = grid.reshape(H // s, s, W // s, s).transpose(0, 2, 1, 3)
    stack = _level_stack(spec, m)
    return [int(np.all(tiles == stack[:, i], axis=(2, 3)).sum()) for i in range(spec.k(m))]


# ----------------------------------------------------------------------
# occurrence counting
# ----------------------------------------------------------------------

def count_occurrences(
    spec: HierarchySpec,
    needle: Patch,
    level: int,
    pid: int,
    mode: str = SLIDING,
    cap: int | None = None,
    _memo: dict | None = None,
) -> int:
    """Exact number of occurrences of ``needle`` in an (implicit) level patch.

    ``block_aligned`` counts needle-sized blocks of the hierarchy grid (the
    needle must match a whole level); ``sliding`` counts every translate
    fully inside the support, straddles included.  Sliding counts recurse
    on the seams and junctions between children (see the module docstring
    and ``_SlidingCount``) and only materialize seam strips (the w-1 columns,
    or h-1 rows, on each side of a seam) at the levels whose children no
    longer hold the needle, and the 2(w-1) x 2(h-1) block around a junction
    at the levels whose children no longer hold a (w-1) x (h-1) tile; both
    are cut in true orientation.  A needle wider than the children of ``level``
    itself is scanned whole.  Every materialization, in either mode, passes
    ``check_cells`` against ``cap``.  ``_memo`` carries the memo (keys
    ``n``, ``V``, ``H`` and ``C``) between calls that count the same
    needle under the same cap.  A ``pid`` outside 1..k(level) is a
    SpecError in either mode.
    """
    spec._check_pid(level, pid)
    side = spec.side(level)
    if needle.width > side or needle.height > side:
        raise SpecError(
            f"needle {needle.width}x{needle.height} larger than level-{level} side {side}"
        )
    if mode == BLOCK_ALIGNED:
        return _count_block_aligned(spec, needle, level, pid, cap)
    if mode == SLIDING:
        return _SlidingCount(spec, needle, cap, {} if _memo is None else _memo).count(("n", level, pid))
    raise ValueError(f"unknown mode {mode!r}")


def _count_block_aligned(spec, needle, level, pid, cap) -> int:
    if needle.width != needle.height:
        raise SpecError("block-aligned needles must be square")
    m = next((t for t in range(1, spec.num_levels + 1) if spec.side(t) == needle.width), None)
    if m is None:
        raise SpecError(f"no hierarchy level has side {needle.width}")
    check_cells(spec.cell_count(m), f"block-aligned count of level {m} patches", cap)
    stack = _level_stack(spec, m)
    matching = [i for i in range(1, spec.k(m) + 1) if np.array_equal(stack[:, i - 1], needle.cells)]
    if not matching:
        return 0
    mat = spec.count_matrix(m, level)
    return sum(mat[i - 1][pid - 1] for i in matching)


# per seam kind, the edges it joins (a's, then b's) and the order that lays
# two consecutive steps ((u, v), (u2, v2)) along the paired edge out as the
# 2x2 junction (bl, br, tl, tr) between them: "V" has a left of b and steps
# bottom to top, "H" has a below b and steps left to right
_SEAMS = {
    "V": ("right", "left", operator.itemgetter(0, 1, 2, 3)),
    "H": ("top", "bottom", operator.itemgetter(0, 2, 1, 3)),
}


class _SlidingCount:
    """Memoized sliding counts of one needle over one hierarchy.

    One recursion, :meth:`count`, over four kinds of key, with t a level
    and a, b, pid patch ids at that level:

    * ``("n", t, pid)``: placements inside the patch;
    * ``("V", t, a, b)``: placements crossing only the vertical seam of a
      left of b (origins on the seam's rows, not crossing top or bottom);
    * ``("H", t, a, b)``: placements crossing only the horizontal seam of
      a below b;
    * ``("C", t, bl, br, tl, tr)``: placements crossing both seams of the
      2x2 junction of those four patches.

    A key looks itself up in the memo; while the level-(t-1) children hold
    the needle (its (w-1) x (h-1) corner tiles for a junction) it is the sum
    of ``n`` times the count of each level-(t-1) key :meth:`_parts` yields,
    otherwise one block is scanned (:meth:`_scan`).  A patch is its
    children, its seams and its junctions; a seam is the line of seams
    between a's and b's edge children, joined at 2x2 junctions; a junction
    is the junction of the four children that touch it.  Seams and
    junctions are only evaluated at levels whose side is at least the
    needle's, so a placement crosses at most one seam each way.

    The edges, the pair and quad tallies of a patch and the kept seam of
    each pair of patches that the recursion reads are the arrangements'
    own tables (:meth:`Arrangement._tables` and :meth:`Arrangement._seam`),
    built from their bands and kept on the arrangement objects.  So they
    are built once per distinct arrangement object, and per pair of them,
    whatever the level, needle, memo or number of counts; only the memo is
    per needle.  The count that builds a table is charged its write-out.
    """

    def __init__(self, spec: HierarchySpec, needle: Patch, cap: int | None, memo: dict):
        self.spec, self.needle, self.cap, self.memo = spec, needle, cell_cap(cap), memo
        self.w, self.h = needle.width, needle.height
        self.reach = max(self.w, self.h)  # the needle's larger side
        self.sides = [row[0] for row in spec._frames]
        self.child_counts = [row[3] for row in spec._frames]

    def count(self, key: tuple) -> int:
        """The count of ``key``, one of the four kinds above, memoized."""
        memo = self.memo
        if key in memo:
            return memo[key]
        kind, t, ids = key[0], key[1], key[2:]
        if t > 1 and self.sides[t - 2] >= self.reach - (kind == "C"):
            res = 0
            for n, part in self._parts(kind, t, ids):
                got = memo.get(part)  # hits are read here, without a call
                res += n * (self.count(part) if got is None else got)
        else:
            res = self._scan(kind, t, ids)
        memo[key] = res
        return res

    def _parts(self, kind: str, t: int, ids: tuple) -> Iterator[tuple[int, tuple]]:
        """(n, key) for the level-(t-1) keys that make up ``(kind, t, *ids)``."""
        arrs, u, w, h = self.spec.levels[t - 2].arrangements, t - 1, self.w, self.h
        if kind == "n":
            (pid,) = ids
            for i, n in enumerate(self.child_counts[u][pid - 1], start=1):
                if n:
                    yield n, ("n", u, i)
            if w >= 2 or h >= 2:
                hpairs, vpairs, quads = arrs[pid - 1]._tables(self.cap)
                if w >= 2:
                    for (a, b), n in hpairs.items():
                        yield n, ("V", u, a, b)
                if h >= 2:
                    for (a, b), n in vpairs.items():
                        yield n, ("H", u, a, b)
                if w >= 2 and h >= 2:
                    for q, n in quads.items():
                        yield n, ("C", u, *q)
        elif kind == "C":
            bl, br, tl, tr = [arrs[pid - 1] for pid in ids]
            last = bl.rows - 1  # the top row and the right column: frames are square
            yield 1, ("C", u, bl.id_at(last, last), br.id_at(0, last), tl.id_at(last, 0), tr.id_at(0, 0))
        else:
            a, b = ids
            _, pairs, quads = arrs[a - 1]._seam(kind, arrs[b - 1], self.cap)
            for (x, y), n in pairs:
                yield n, (kind, u, x, y)
            if (h if kind == "V" else w) >= 2:  # the needle's extent along the seam
                for q, n in quads:
                    yield n, ("C", u, *q)

    def _scan(self, kind: str, t: int, ids: tuple) -> int:
        """Count ``(kind, t, *ids)`` on one block.  A patch scans itself
        whole.  A seam scans the strip of the w - 1 columns (h - 1 rows) on
        each side of it, a junction the four (w-1) x (h-1) tiles around it:
        one window cut from the patches it joins in true orientation, so
        every scan is of ``needle`` itself, charged to the cap first."""
        spec = self.spec
        if kind == "n":
            (pid,) = ids
            if t == 1:
                return scan_count(spec.base[pid - 1].cells, self.needle)
            return scan_count(_cells(spec, t, pid, self.cap, "direct scan of"), self.needle)
        s, cw, ch = self.sides[t - 1], self.w - 1, self.h - 1
        if kind == "V":
            rows, x0, y0, w, h, what = (ids,), s - cw, 0, 2 * cw, s, "vertical seam strip"
        elif kind == "H":
            rows, x0, y0, w, h, what = (ids[:1], ids[1:]), 0, s - ch, s, 2 * ch, "horizontal seam strip"
        else:
            rows, x0, y0, w, h, what = (ids[:2], ids[2:]), s - cw, s - ch, 2 * cw, 2 * ch, "junction block"
        check_cells(w * h, f"{what} at level {t}", self.cap)
        return scan_count(_cut(spec, t, lambda col, row: rows[row][col], x0, y0, w, h), self.needle)


def block_frequency_matrix(spec: HierarchySpec, m: int, n: int) -> list[list[Fraction]]:
    """Block densities of level-m patches inside level-n patches (columns sum to 1)."""
    if m >= n:
        raise SpecError("need m < n")
    counts = spec.count_matrix(m, n)
    per_patch = (spec.side(n) // spec.side(m)) ** 2
    return [[Fraction(c, per_patch) for c in row] for row in counts]


# ----------------------------------------------------------------------
# scheme validation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class SchemeReport:
    rows: tuple[CheckRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failed(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.ok]


def _check_row(name: str, failures: Iterable[str], reported_only: bool = False, note: str = "") -> CheckRow:
    """The row of a check from the witnesses it yields lazily, in the order
    it finds them: the first fails the row, or passes it marked as reported
    only when ``reported_only`` (toy mode); none passes it with ``note``."""
    witness = next(iter(failures), None)
    if witness is None:
        return CheckRow(name, True, note)
    if reported_only:
        witness += " (toy: reported only)"
    return CheckRow(name, reported_only, witness)


def validate_scheme(spec: HierarchySpec) -> SchemeReport:
    """Structural validation of the nesting/tiling properties of a hierarchy.

    Checks, per level: the frames nest and contain the origin; sides grow;
    every arrangement is a square grid over valid child ids (true of every
    :class:`HierarchySpec`, so those two rows always pass); every child id
    is used in every arrangement; and, for anchored specs, patch 1
    restricted to the anchor cell is patch 1 of the level below.
    """
    levels = list(enumerate(spec.levels, start=2))

    def contains_origin():
        for t, (side, (ox, oy), _, _) in enumerate(spec._frames, start=1):
            if not (ox <= 0 <= ox + side - 1 and oy <= 0 <= oy + side - 1):
                yield f"level {t} frame [{ox},{ox+side-1}]^2 misses the origin"
            if t > 1:
                pside, (pox, poy), _, _ = spec._frames[t - 2]
                if not (ox <= pox and oy <= poy and ox + side >= pox + pside and oy + side >= poy + pside):
                    yield f"level {t} frame does not contain level {t-1}"

    def anchor_chain():
        for t, lv in levels:
            got = lv.arrangements[0].id_at(*lv.anchor)
            if got != 1:
                yield f"level {t} anchor cell {lv.anchor} holds id {got}, not 1"

    rows = [
        _check_row("contains_origin", contains_origin()),
        _check_row("sides_grow", (
            f"level {t} branching {lv.branching} < 2" for t, lv in levels if lv.branching < 2
        )),
        _check_row("exact_tiling", ()),  # a Level of mixed or non-square arrangements cannot be built
        _check_row("children_valid", ()),  # a spec with a stray child id cannot be built
        _check_row("all_children_used", (
            f"level {t} patch {j} never uses child {i}"
            for t in range(2, spec.num_levels + 1)
            for j, counts in enumerate(spec._frames[t - 1][3], start=1)
            for i, c in enumerate(counts, start=1)
            if c == 0
        )),
    ]
    if spec.anchored:
        rows.append(_check_row("anchor_chain", anchor_chain()))
    return SchemeReport(tuple(rows))


# ----------------------------------------------------------------------
# repetitivity estimation
# ----------------------------------------------------------------------

def estimate_repetitivity(patch: Patch, r: int, cap: int | None = None) -> int | None:
    """Smallest window side R so that every R x R sub-window of ``patch``
    contains every r x r pattern occurring anywhere in the patch.

    Pattern equality is exact bitset equality (occupied and empty cells).
    Returns None ("window too small") when no R <= side - r works.

    An R x R window holds a pattern iff the K x K block of pattern origins
    it spans (K = R - r + 1) holds one of its occurrences. Each pattern's
    occurrences form a boolean mask; a sliding OR of width K along both
    axes marks the blocks holding one, so the test is boolean throughout
    and counts nothing. A window that holds a pattern at side R still holds
    it at every larger side, so each pattern that the largest R found so
    far, ``best``, does not serve is tried at ``best`` + 1, + 2, + 4, ...
    (at most side - r), and its own smallest R is bisected in the last gap:
    the tests grow with log R, not with log side.

    The distinct codes come in ascending order.  For r <= 4 (uint16 codes)
    they are read off a presence table of all 2^(r^2) codes, with no sort;
    above that a table cannot exist and ``np.unique`` sorts a copy.

    The code arrays are charged to the cell cap at one cell a byte: three
    window-sized code arrays cover the codes with the plane that builds
    them, then the window test's masks and, for r > 4, the sorted copy.
    The charge is unchanged for r <= 4, where the presence table (at most
    64 KB) takes the place of the sorted copy.
    """
    side = patch.side
    if r < 1:
        raise ValueError("pattern side must be positive")
    if side < 3 * r:
        raise ValueError(f"patch side {side} below 3r = {3 * r}")
    if r > 8:
        raise ValueError("pattern side above 8 is not supported")
    itemsize = np.dtype(_code_dtype(r)).itemsize
    check_cells(3 * itemsize * side * side,
                f"{3 * itemsize}-byte pattern codes of side {r} on a {side}x{side} window", cap)
    codes = _pattern_codes(patch.cells, r)
    best, top = r, side - r
    for code in _distinct_codes(codes, r):
        here = codes == code
        if _blocks_hold(here, best - r + 1):
            continue
        fail, step = best, 1
        while True:
            probe = min(best + step, top)
            if _blocks_hold(here, probe - r + 1):
                break
            if probe == top:
                return None
            fail, step = probe, 2 * step
        lo, hi = fail + 1, probe
        while lo < hi:
            mid = (lo + hi) // 2
            if _blocks_hold(here, mid - r + 1):
                hi = mid
            else:
                lo = mid + 1
        best = lo
    return best


def _pattern_codes(cells: np.ndarray, r: int) -> np.ndarray:
    """Code of the r x r pattern at each origin: bit dy*r + dx holds cell
    (dy, dx), in the dtype of :func:`_code_dtype`."""
    H, W = cells.shape
    outh, outw = H - r + 1, W - r + 1
    dtype = _code_dtype(r)
    codes = np.zeros((outh, outw), dtype=dtype)
    shifted = np.empty_like(codes)
    for bit in range(r * r):
        dy, dx = divmod(bit, r)
        np.left_shift(cells[dy : dy + outh, dx : dx + outw], dtype(bit), out=shifted, dtype=dtype)
        codes |= shifted
    return codes


def _distinct_codes(codes: np.ndarray, r: int) -> np.ndarray:
    """The distinct values of ``codes``, ascending: a presence table of the
    2^(r^2) uint16 codes for r <= 4, a sort for the uint64 codes above."""
    if _code_dtype(r) is not np.uint16:
        return np.unique(codes)
    seen = np.zeros(1 << r * r, dtype=bool)
    seen[codes.ravel()] = True
    return np.flatnonzero(seen).astype(np.uint16)


def _code_dtype(r: int) -> type:
    """Codes of r x r patterns fit uint16 for r <= 4 and uint64 up to r = 8."""
    return np.uint16 if r * r <= 16 else np.uint64


def _blocks_hold(mask: np.ndarray, K: int) -> bool:
    """True iff every K x K block of ``mask`` holds a True cell."""
    return bool(_or_runs(_or_runs(mask, K).T, K).all())


def _or_runs(a: np.ndarray, K: int) -> np.ndarray:
    """Row i of the result is the OR of rows i .. i + K - 1 of ``a``: runs
    of width p doubled while 2p <= K, then two overlapping runs of p."""
    p = 1
    while 2 * p <= K:
        a = a[:-p] | a[p:]
        p *= 2
    return a if p == K else a[: len(a) - K + p] | a[K - p :]


# ----------------------------------------------------------------------
# descriptor file (.dhs)
# ----------------------------------------------------------------------

def _spec_chunks(spec: HierarchySpec, cap: int) -> Iterator[bytes]:
    """The .dhs text of ``spec`` as encoded chunks, each ending in a newline.

    An arrangement whose bands are exactly :meth:`Arrangement.altbottom`'s is
    one line.  Any other arrangement whose grid the cell cap ``cap`` admits is
    written dense, a line of ids per row, top row first.  A grid past the
    cap is written as its bands: a ``band`` line each, then a line per piece
    of its row, the repetitions and then each run's id and length.
    """
    def line(text: str) -> bytes:
        return (text + "\n").encode()

    yield line(f"DHS 1\nkind {spec.kind}\nanchored {int(spec.anchored)}")
    for k in sorted(spec.meta):
        yield line(f"meta {k} {spec.meta[k]}")
    yield line(f"level 1 patches {len(spec.base)}")
    for p in spec.base:
        yield dumps_patch(p).encode()
    for t, lv in enumerate(spec.levels, start=2):
        yield line(f"level {t} patches {len(lv.arrangements)}\nanchor {lv.anchor[0]} {lv.anchor[1]}")
        if lv.n_is_one:
            yield line("n1")
        for k in sorted(lv.meta):
            yield line(f"meta {k} {lv.meta[k]}")
        for arr in lv.arrangements:
            alt = _altbottom_fields(arr)
            if alt:
                yield line(f"arrangement {arr.rows} {arr.cols} altbottom {' '.join(map(str, alt))}")
            elif arr.rows * arr.cols <= cap:
                yield line(f"arrangement {arr.rows} {arr.cols}")
                for row, m in reversed(arr.bands):
                    yield line(" ".join(map(str, _ids(row)))) * m
            else:
                yield line(f"arrangement {arr.rows} {arr.cols} bands {len(arr.bands)}")
                for row, m in arr.bands:
                    yield line(f"band {m} pieces {len(row.pieces)}")
                    for runs, reps in row.pieces:
                        yield line(" ".join(map(str, (reps, *(x for run in runs for x in run)))))


def dumps_spec(spec: HierarchySpec) -> str:
    """The .dhs descriptor text of ``spec``."""
    return b"".join(_spec_chunks(spec, cell_cap())).decode()


def write_spec(path, spec: HierarchySpec) -> None:
    """Write :func:`dumps_spec` of ``spec``, one encoded chunk at a time;
    the cap is read before the file is opened."""
    chunks = _spec_chunks(spec, cell_cap())
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def loads_spec(text: str) -> HierarchySpec:
    """Parse a .dhs descriptor, checking it while it loads.

    Any malformed input raises :class:`PatchFormatError`: a header line
    with missing, extra or non-integer fields; levels not numbered 1, 2,
    3, ... in order; a ``patches`` count other than the number of patches
    or arrangements that follow; an arrangement body that is not ``rows``
    lines of ``cols`` decimal ids separated by single spaces; bands that do
    not add up (:func:`_parse_bands`); a child id outside 1..k of the level
    below; and the structural errors of the constructors (frames not
    square, even ``blocks``, ...).

    Arrangements with the same text (header and body lines) load as one
    object, parsed once, so a spec that repeats an arrangement at many
    levels builds its seam tables once; each occurrence is still checked
    against the k of its own level.  The lines come from :func:`_lines`,
    which shares a line equal to the one before it.
    """
    return _load(text[i : i + _BLOCK] for i in range(0, len(text), _BLOCK))


def _load(blocks: Iterable[str]) -> HierarchySpec:
    """The spec in the text made of ``blocks``, cut into lines by :func:`_lines`."""
    lines = _lines(blocks)  # a read error is raised as it is
    try:
        return _parse_spec(lines)
    except PatchFormatError:
        raise
    except ValueError as exc:  # SpecError and the patch checks
        raise PatchFormatError(str(exc)) from None


# the characters of a block of :func:`_lines`
_BLOCK = 1 << 16


def _lines(blocks: Iterable[str]) -> list[str]:
    """The non-blank lines of the text ``"".join(blocks)``, cut where
    ``str.splitlines`` cuts.

    Each block (``_BLOCK`` characters from the loaders) is cut on its own,
    after the unfinished last line of the block before it, so the whole
    text is never held.  A line equal to the one before it is stored as
    that same object, so a dense body of few distinct rows is held as those
    rows and references to them.  The copies of the last line stored, each
    ending in ``"\\n"``, are first taken off the head of a block by
    comparing them, not cutting them, so a body's runs of equal rows cost
    a comparison each; ``splitlines`` cuts what is left."""
    lines: list[str] = []
    tail = ""
    for block in blocks:
        text, i = tail + block, 0
        if lines:
            last = lines[-1]
            unit = last + "\n"
            while text.startswith(unit, i):
                lines.append(last)
                i += len(unit)
        got = text[i:].splitlines()
        # the last line is unfinished unless the text ends in a break
        tail = got.pop() if got and text[-1].splitlines()[0] else ""
        got = list(filter(str.strip, got))
        if got and lines and got[0] == lines[-1]:
            got[0] = lines[-1]
        for i in compress(range(1, len(got)), map(operator.eq, got, got[1:])):
            got[i] = got[i - 1]
        lines += got
    if tail.strip():
        lines.append(lines[-1] if lines and tail == lines[-1] else tail)
    return lines


def _parse_spec(lines: list[str]) -> HierarchySpec:
    if not lines or lines[0].split() != ["DHS", "1"]:
        raise PatchFormatError("missing DHS 1 header")
    i = 1
    kind, anchored = "custom", False
    meta: dict[str, str] = {}
    while i < len(lines) and not lines[i].startswith("level "):
        parts = lines[i].split(None, 2)
        if parts[0] == "kind" and len(parts) == 2:
            kind = parts[1]
        elif parts[0] == "anchored":
            anchored = bool(_fields(lines[i], "anchored #")[0])
        elif parts[0] == "meta" and len(parts) > 1:
            meta[parts[1]] = parts[2] if len(parts) > 2 else ""
        else:
            raise PatchFormatError(f"unexpected line {lines[i]!r}")
        i += 1

    base: list[Patch] = []
    levels: list[Level] = []
    shared: dict[str, list] = {}  # see _shared_arrangement
    while i < len(lines):
        t, kk = _fields(lines[i], "level # patches #")
        if t != len(levels) + 1 + bool(base):
            raise PatchFormatError(f"level {t} out of order: levels must be numbered 1, 2, 3, ...")
        if kk < 1:
            raise PatchFormatError(f"level {t}: patches must be positive")
        i += 1
        if t == 1:
            for _ in range(kk):
                p, i = parse_patch_lines(lines, i)
                base.append(p)
            continue
        kp = len(levels[-1].arrangements) if levels else len(base)
        anchor, n1, lmeta = (0, 0), False, {}
        arrs: list[Arrangement] = []
        while i < len(lines) and not lines[i].startswith("level "):
            parts = lines[i].split(None, 2)
            if parts[0] == "anchor":
                anchor = tuple(_fields(lines[i], "anchor # #"))
                i += 1
            elif parts == ["n1"]:
                n1 = True
                i += 1
            elif parts[0] == "meta" and len(parts) > 1:
                lmeta[parts[1]] = parts[2] if len(parts) > 2 else ""
                i += 1
            elif parts[0] == "arrangement":
                arr, i = _shared_arrangement(lines, i, shared)
                lo, hi = arr.id_bounds()
                if lo < 1 or hi > kp:
                    raise PatchFormatError(
                        f"level {t} arrangement {len(arrs) + 1}: child id "
                        f"{lo if lo < 1 else hi} outside 1..{kp}"
                    )
                arrs.append(arr)
            else:
                raise PatchFormatError(f"unexpected line {lines[i]!r}")
        if len(arrs) != kk:
            raise PatchFormatError(f"level {t}: header says {kk} patches, body holds {len(arrs)}")
        levels.append(Level(arrs, anchor, n1, lmeta))
    return HierarchySpec(base, levels, kind, anchored, meta)


def _shared_arrangement(lines: list[str], i: int, shared: dict[str, list]) -> tuple[Arrangement, int]:
    """The arrangement whose header is ``lines[i]``, and the next index: the
    object an earlier parse made from the same lines, or a new parse.

    ``shared`` maps a header line to the (lines, arrangement) of each parse
    under it.  Those are the lines the parse read, and the same lines parse
    the same again, so a match is the arrangement itself.  Lines are
    compared, not hashed: a dense body is long, and a comparison stops at
    its first differing line."""
    for text, arr in shared.get(lines[i], ()):
        if lines[i : i + len(text)] == text:
            return arr, i + len(text)
    arr, end = _parse_arrangement(lines, i)
    shared.setdefault(lines[i], []).append((lines[i:end], arr))
    return arr, end


def _parse_arrangement(lines: list[str], i: int) -> tuple[Arrangement, int]:
    """The arrangement whose header is ``lines[i]``, and the next index."""
    head = lines[i].split()
    if head[3:4] == ["bands"]:
        return _parse_bands(lines, i)
    if len(head) > 3:
        rows, cols, s, b, main, alt = _fields(lines[i], "arrangement # # altbottom # # # #")
        arr = Arrangement.altbottom(s, b, main, alt)
        if arr.rows != rows or arr.cols != cols:
            raise PatchFormatError("altbottom dimensions disagree")
        return arr, i + 1
    rows, cols = _fields(lines[i], "arrangement # #")
    if rows < 1 or cols < 1:
        raise PatchFormatError(f"empty arrangement {rows}x{cols}")
    body = lines[i + 1 : i + 1 + rows]
    if len(body) != rows:
        raise PatchFormatError("truncated arrangement body")

    def read(text: str) -> list[str]:  # each distinct line is checked and read once, into runs
        ids = text.split(" ")  # decimal ids separated by single spaces
        if len(ids) != cols or not (all(ids) and text.isascii() and "".join(ids).isdigit()):
            raise PatchFormatError(f"arrangement body is not {rows} rows of {cols} ids")
        return ids

    return Arrangement(_row_bands(reversed(body), read)), i + 1 + rows


def _parse_bands(lines: list[str], i: int) -> tuple[Arrangement, int]:
    """The band spelling whose header is ``lines[i]``, and the next index."""
    rows, cols, count = _fields(lines[i], "arrangement # # bands #")
    bands = []
    for _ in range(count):
        i += 1
        head = lines[i] if i < len(lines) else ""
        mult, npieces = _fields(head, "band # pieces #")
        pieces = []
        for text in lines[i + 1 : i + 1 + npieces]:
            reps, *flat = _fields(text, "#" + " # #" * (len(text.split()) // 2))
            if not flat or min(reps, *flat[1::2]) < 1:
                raise PatchFormatError(f"expected repetitions and runs, each at least 1, got {text!r}")
            pieces.append((tuple(zip(flat[::2], flat[1::2])), reps))
        if len(pieces) != npieces:
            raise PatchFormatError(f"truncated band: {head!r}")
        bands.append((Edge(tuple(pieces)), mult))
        i += npieces
    arr = Arrangement(tuple(bands))
    if (arr.rows, arr.cols) != (rows, cols):
        raise PatchFormatError(f"the bands make a {arr.rows}x{arr.cols} grid, not {rows}x{cols}")
    return arr, i + 1


def read_spec(path) -> HierarchySpec:
    """:func:`loads_spec` of the file at ``path``, read a block at a time."""
    with open(path) as fh:
        return _load(iter(lambda: fh.read(_BLOCK), ""))
