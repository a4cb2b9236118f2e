"""Finite lattice patches: occupancy grids over rectangular supports of Z^2.

A patch stores which cells of a width x height rectangle are occupied,
bottom-up and row-major (``cells[y, x]`` with y = 0 the bottom row), plus
the absolute lattice position of its bottom-left cell.  All pass/fail
arithmetic on patches (densities, counts) is exact: counts are integers
and densities are ``fractions.Fraction``.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

Point = tuple[int, int]


class PatchFormatError(ValueError):
    """Raised on malformed patch/points/map files."""


def _data_lines(text: str) -> list[str]:
    """The lines of ``text`` with ``#`` comments and surrounding blanks cut;
    lines left empty are dropped."""
    return [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]


def _fields(line: str, layout: str) -> list[int]:
    """The integers of a line laid out as ``layout``: keywords, and ``#``
    for each integer field, separated by whitespace.  Next to punctuation
    such as ``->`` or ``=`` the whitespace may be left out."""
    m = _layout_re(layout).fullmatch(line)
    if m is not None:
        try:
            return [int(g) for g in m.groups()]
        except ValueError:
            # a decimal field fails only past the int/str digit limit (none before 3.11)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            for g in m.groups():
                digits = g[1:] if g[0] in "+-" else g
                if digits.isdecimal() and len(digits) > limit > 0:
                    raise PatchFormatError(
                        f"a field of {len(digits)} digits in {layout!r} is past this process's int/str "
                        f"digit limit of {limit} (sys.get_int_max_str_digits())"
                    ) from None
    raise PatchFormatError(f"expected {layout!r}, got {line!r}")


@functools.lru_cache(maxsize=None)
def _layout_re(layout: str) -> re.Pattern:
    words = layout.split()
    pat = r"\s*"
    for i, w in enumerate(words):
        if i:
            pair = (words[i - 1], w)
            pat += r"\s+" if all(v == "#" or v.isidentifier() for v in pair) else r"\s*"
        pat += r"(\S+)" if w == "#" else re.escape(w)
    return re.compile(pat + r"\s*")


@dataclass(frozen=True, eq=False)
class Patch:
    """Occupancy bitset on a rectangular support.

    ``cells`` is a uint8 array of shape (height, width); row 0 is the
    BOTTOM row of the support.  ``origin`` is the absolute lattice
    coordinate of cell (0, 0).  When ``full_boundary`` is set, every cell
    on the outermost rows/columns must be occupied.
    """

    cells: np.ndarray
    origin: Point = (0, 0)
    full_boundary: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.cells, dtype=np.uint8))
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("patch support must be a nonempty rectangle")
        if arr.max(initial=0) > 1:
            raise ValueError("occupancy values must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "cells", arr)
        if self.full_boundary and not self.boundary_full():
            raise ValueError("full_boundary flag set but a boundary cell is empty")

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def side(self) -> int:
        if self.width != self.height:
            raise ValueError("patch is not square")
        return self.width

    def get(self, x: int, y: int) -> bool:
        """Occupancy at local coordinates (x, y), y measured from the bottom."""
        return bool(self.cells[y, x])

    def popcount(self) -> int:
        return int(self.cells.sum())

    def density(self) -> Fraction:
        return Fraction(self.popcount(), self.width * self.height)

    def boundary_full(self) -> bool:
        c = self.cells
        return bool(c[0].all() and c[-1].all() and c[:, 0].all() and c[:, -1].all())

    # -- content comparison (ignores origin and flags) --------------------

    def same_content(self, other: "Patch") -> bool:
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Patch):
            return NotImplemented
        return self.same_content(other) and self.origin == other.origin

    def __hash__(self):
        return hash((self.cells.shape, self.cells.tobytes(), self.origin))

    # -- derived patches ---------------------------------------------------

    def subpatch(self, x0: int, y0: int, w: int, h: int) -> "Patch":
        """Restriction to local cells [x0, x0+w) x [y0, y0+h)."""
        if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
            raise ValueError("subpatch exceeds support")
        ox, oy = self.origin
        return Patch(self.cells[y0 : y0 + h, x0 : x0 + w], (ox + x0, oy + y0))

    def translated(self, dx: int, dy: int) -> "Patch":
        ox, oy = self.origin
        return Patch(self.cells, (ox + dx, oy + dy), self.full_boundary)

    def closed(self) -> "Patch":
        """Add a fully occupied top row and right column.

        Converts a half-open corner patch back into the closed square whose
        boundary rows/columns are entirely occupied (the matching convention
        identifies the shared edges of adjacent closed squares).
        """
        h, w = self.cells.shape
        out = np.zeros((h + 1, w + 1), dtype=np.uint8)
        out[:h, :w] = self.cells
        out[h, :] = 1
        out[:, w] = 1
        if not (self.cells[0].all() and self.cells[:, 0].all()):
            raise ValueError("closure defined only for patches with full bottom/left edges")
        return Patch(out, self.origin, full_boundary=True)

    def corner(self) -> "Patch":
        """Drop the top row and right column (the lower-left corner)."""
        if self.width < 2 or self.height < 2:
            raise ValueError("patch too small to take a corner")
        return Patch(self.cells[:-1, :-1], self.origin)

    def points(self) -> Iterator[Point]:
        """Absolute coordinates of occupied cells, bottom-up then left-right."""
        ox, oy = self.origin
        ys, xs = np.nonzero(self.cells)  # in (y, x) order
        for x, y in zip(xs.tolist(), ys.tolist()):
            yield (ox + x, oy + y)

    def __str__(self) -> str:
        return str(_strip_text(self.cells, sep=False), "ascii")[:-1]


def from_rows(rows: Iterable[str], origin: Point = (0, 0), full_boundary: bool = False) -> Patch:
    """Build a patch from strings of 0/1, FIRST string = TOP row."""
    mat = [[int(ch) for ch in row] for row in rows]
    if len({len(r) for r in mat}) != 1:
        raise PatchFormatError("ragged rows")
    return Patch(np.array(mat[::-1], dtype=np.uint8), origin, full_boundary)


def full_patch(width: int, height: int, origin: Point = (0, 0)) -> Patch:
    return Patch(np.ones((height, width), dtype=np.uint8), origin, full_boundary=True)


def has_even_column_property(patch: Patch) -> bool:
    """True iff every cell in a column of even absolute x is occupied.

    Absolute parity uses the patch origin, so a patch "centered at the
    origin" is checked against its real lattice position.
    """
    if patch.popcount() == 0:
        raise ValueError("patch is empty")
    ox = patch.origin[0]
    even_cols = [x for x in range(patch.width) if (ox + x) % 2 == 0]
    if not even_cols:
        return True
    return bool(patch.cells[:, even_cols].all())


def corner_density(patch: Patch, corner_side: int) -> Fraction:
    """Occupied fraction of the M x M block at the patch's lower-left.

    Counts cells with both local coordinates in [0, M-1], divided by M^2.
    """
    m = corner_side
    if m < 1 or m > min(patch.width, patch.height):
        raise ValueError("corner exceeds support")
    return Fraction(int(patch.cells[:m, :m].sum()), m * m)


# ----------------------------------------------------------------------
# text formats
# ----------------------------------------------------------------------

# cells (one byte each) of a strip: about a quarter of a megabyte, so a
# strip's buffers stay in cache.  ``hierarchy.scan_count`` scans, and the
# text writers format, whole rows a strip at a time.
_STRIP = 1 << 18


def _strip_rows(width: int) -> int:
    """Rows of ``width`` cells in one strip: at most ``_STRIP`` cells, and
    at least one row."""
    return max(1, _STRIP // width)


def _strip_text(cells: np.ndarray, sep: bool, buf: np.ndarray | None = None) -> np.ndarray:
    """Rows of '0'/'1', top row first, each ending in a newline, as ASCII
    in ``buf[:len(cells)]`` (a new buffer when ``buf`` is None).

    One add a call, so no Python code runs per cell or row: a cell c is the
    digit ``0x30 + c``, or with ``sep`` the little-endian pair ``0x2030 + c``
    (digit, space), whose last space a row turns into its newline.
    """
    h, w = cells.shape
    if buf is None:
        buf = np.empty((h, 2 * w if sep else w + 1), dtype=np.uint8)
    out = buf[:h]
    if sep:
        np.add(cells[::-1], np.uint16(0x2030), out=out.view("<u2"))
    else:
        np.add(cells[::-1], np.uint8(ord("0")), out=out[:, :w])
    out[:, -1] = ord("\n")
    return out


def _head(fmt: str, width: int, height: int, origin: Point = (0, 0), full_boundary: bool = False) -> str:
    if fmt == "pbm":
        return f"P1\n{width} {height}\n"
    if fmt == "dpf":
        flag = " full_boundary" if full_boundary else ""
        return f"PATCH {width} {height} {origin[0]} {origin[1]}{flag}\n"
    raise ValueError(f"unknown text format {fmt!r}")


def write_cells(path, fmt: str, blocks: Iterable[np.ndarray], width: int, height: int,
                origin: Point = (0, 0), full_boundary: bool = False) -> None:
    """Write the ``width`` x ``height`` patch at ``origin`` as ``fmt``
    ("pbm" or "dpf") without holding its cells or text whole.

    ``blocks`` are its cells in whole rows, top block first, each stored
    bottom row first like ``Patch.cells``.  Each block is formatted in
    strips of at most ``_STRIP`` cells through one reused text buffer, so a
    block may be a view that the next one overwrites.
    """
    sep = fmt == "pbm"
    head = _head(fmt, width, height, origin, full_boundary).encode("ascii")
    n = _strip_rows(width)
    buf = np.empty((min(n, height), 2 * width if sep else width + 1), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            for y in range(len(block), 0, -n):
                fh.write(_strip_text(block[max(0, y - n) : y], sep, buf))


def dumps_patch(patch: Patch) -> str:
    """Serialize to the .dpf text format (header line, then rows top-down)."""
    head = _head("dpf", patch.width, patch.height, patch.origin, patch.full_boundary)
    return head + str(_strip_text(patch.cells, sep=False), "ascii")


def parse_patch_lines(lines: list[str], start: int = 0) -> tuple[Patch, int]:
    """Parse one PATCH block from ``lines[start:]``; returns (patch, next index)."""
    if start >= len(lines):
        raise PatchFormatError("missing PATCH block")
    flag = lines[start].split()[-1:] == ["full_boundary"]
    w, h, ox, oy = _fields(lines[start], "PATCH # # # # full_boundary" if flag else "PATCH # # # #")
    rows = lines[start + 1 : start + 1 + h]
    if len(rows) != h:
        raise PatchFormatError("truncated patch body")
    for r in rows:
        if len(r.strip()) != w or set(r.strip()) - {"0", "1"}:
            raise PatchFormatError(f"bad patch row: {r!r}")
    try:
        patch = from_rows((r.strip() for r in rows), (ox, oy), flag)
    except ValueError as exc:  # the Patch invariants, e.g. an empty full_boundary cell
        raise PatchFormatError(f"bad patch: {exc}") from None
    return patch, start + 1 + h


def loads_patch(text: str) -> Patch:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    patch, _ = parse_patch_lines(lines)
    return patch


def write_patch(path, patch: Patch) -> None:
    """Write :func:`dumps_patch` of ``patch``, a strip at a time."""
    write_cells(path, "dpf", [patch.cells], patch.width, patch.height, patch.origin, patch.full_boundary)


def read_patch(path) -> Patch:
    """The patch of a .dpf file, or of a plain PBM one, told by its "P1"."""
    with open(path) as fh:
        text = fh.read()
    return (loads_pbm if text.lstrip()[:2] == "P1" else loads_patch)(text)


def write_points(path, patch: Patch) -> None:
    """The occupied cells of ``patch`` as points, one ``x y`` line each in
    the order of :meth:`Patch.points`: a row of cells is one join of its x
    strings, formatted once a call, on the row's line end."""
    ox, oy = patch.origin
    xs = [str(ox + x) for x in range(patch.width)]
    with open(path, "w") as fh:
        for y, row in enumerate(patch.cells, start=oy):
            taken = np.flatnonzero(row).tolist()
            if taken:
                end = f" {y}\n"
                fh.write(end.join([xs[i] for i in taken]) + end)


def read_points(path) -> list[Point]:
    with open(path) as fh:
        return [tuple(_fields(ln, "# #")) for ln in _data_lines(fh.read())]


def dumps_pbm(patch: Patch) -> str:
    """Plain PBM ("P1"): 1 = occupied, top row first."""
    return _head("pbm", patch.width, patch.height) + str(_strip_text(patch.cells, sep=True), "ascii")


def loads_pbm(text: str) -> Patch:
    """Parse plain PBM ("P1"); raster bits may be separated by whitespace
    or run together. Malformed text raises :class:`PatchFormatError`."""
    toks = " ".join(_data_lines(text)).split()
    w, h = _fields(" ".join(toks[:3]), "P1 # #")
    if w < 1 or h < 1:
        raise PatchFormatError(f"PBM size {w} x {h} is not positive")
    bits = "".join(toks[3:])
    if len(bits) != w * h:
        raise PatchFormatError(f"PBM raster holds {len(bits)} bits, not {w} x {h}")
    if not set(bits) <= {"0", "1"}:
        raise PatchFormatError("PBM bits must be 0 or 1")
    arr = np.frombuffer(bits.encode(), dtype=np.uint8) == ord("1")
    return Patch(arr.reshape(h, w)[::-1])
