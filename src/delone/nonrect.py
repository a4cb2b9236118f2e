"""Alternating-block construction of repetitive lattice sets that defeat a
prescribed bi-Lipschitz constant, plus the exact constant calculators that
make each step rigorous.

One step takes two square patches of equal side whose lower-left corners
have different point densities and produces two much larger squares: the
bottom band alternates super-blocks of the two inputs (the same input at
both ends), everything above is filled with one input only.  Iterated with
constants derived from the target Lipschitz bound, corner densities of the
two outputs bracket a fixed gap, which forces expansions to grow from one
scale to the next; a schedule of growing bounds then rules out every
constant at once.

Rigorous constants are astronomically large (scale floors around 1e15), so
the builder has two modes: ``rigorous`` keeps everything symbolic (exact
big integers, density claims verified on the implicit hierarchy, dense
materialization refused) and ``toy`` uses small user parameters with all
structural invariants still checked but no non-rectifiability claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .hierarchy import Arrangement, HierarchySpec, Level
from .maps import CandidateMap
from .patch import Patch, corner_density, from_rows, has_even_column_property

Rat = Fraction | int


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RegularityConstants(NamedTuple):
    lam: Fraction
    M0: int
    N0: int


class DensityGapConstants(NamedTuple):
    lam: Fraction
    M_star: int
    N_star: int


def regularity_constants(L: Rat, eps: Rat, P: int) -> RegularityConstants:
    """Exact thresholds under which the probe-square regularity step applies.

    lam = eps^2 / (108 P L^2), with floors
    M0 = ceil(108 P^2 L^2 (L+4) / eps^2) and
    N0 = 2 + ceil(216 L^2 P (3 L^2 + P + 1) / eps^2).
    """
    L, eps = _frac(L), _frac(eps)
    if L < 1 or not (0 < eps <= 1) or P < 1:
        raise ValueError("need L >= 1, 0 < eps <= 1, P >= 1")
    lam = eps**2 / (108 * P * L**2)
    m0 = math.ceil(108 * P**2 * L**2 * (L + 4) / eps**2)
    n0 = 2 + math.ceil(216 * L**2 * P * (3 * L**2 + P + 1) / eps**2)
    return RegularityConstants(lam, m0, n0)


def density_gap_formulas(L: Rat, gap: Rat) -> DensityGapConstants:
    """The displayed density-gap formulas as functions of the gap alone."""
    L, gap = _frac(L), _frac(gap)
    if L < 1 or not 0 < gap <= 1:
        raise ValueError("need L >= 1 and 0 < gap <= 1")
    lam = gap**3 / (10**10 * L**7)
    m_star = math.ceil(10**15 * L**11 / gap**4)
    n_star = math.ceil(10**10 * L**10 / gap**4)
    return DensityGapConstants(lam, m_star, n_star)


def density_gap_constants(L: Rat, d: Rat, d_prime: Rat) -> DensityGapConstants:
    """Exact thresholds under which a corner-density gap forces an expansion.

    lam = (d-d')^3 / (1e10 L^7), with floors
    M* = ceil(1e15 L^11 / (d-d')^4) and N* = ceil(1e10 L^10 / (d-d')^4).
    """
    L, d, dp = _frac(L), _frac(d), _frac(d_prime)
    if not (1 >= d > dp > 0):
        raise ValueError("need 1 >= d > d' > 0")
    return density_gap_formulas(L, d - dp)


def containment_scale(L: Rat, eps: Rat) -> int:
    """Probe-resolution floor P0 = ceil(max(4 (6L)^4, 3 (6L)^2 / eps))."""
    L, eps = _frac(L), _frac(eps)
    if L < 1 or eps <= 0:
        raise ValueError("need L >= 1 and eps > 0")
    lhat = 6 * L
    return math.ceil(max(4 * lhat**4, 3 * lhat**2 / eps))


def ell_min(L: Rat, lam: Rat) -> int:
    """Smallest iteration count with certified (1+lam)^ell > L^2.

    Returns ceil(L^2 / lam); the growth condition is certified exactly (a
    rational power for moderate ell, the linear lower bound 1 + lam*ell
    otherwise, which already suffices at this ell).
    """
    L, lam = _frac(L), _frac(lam)
    if lam <= 0:
        raise ValueError("need lam > 0")
    ell = math.ceil(L**2 / lam)
    if ell <= 4096:
        ok = (1 + lam) ** ell > L**2
    else:
        ok = 1 + lam * ell > L**2
    if not ok:
        raise ArithmeticError("growth condition (1+lam)^ell > L^2 failed")
    return ell


def n_min(n_star: int, d1: Rat, d2: Rat, d1p: Rat, d2p: Rat) -> int:
    """Smallest even N >= 2 max(N*/2, 1/(d2-d2'), 1/(d1'-d1)).

    A thin wrapper of :func:`_n_min_counts`: d1 and d2 are put over one
    denominator, their product."""
    d1, d2 = _frac(d1), _frac(d2)
    return _n_min_counts(n_star, d1.numerator * d2.denominator, d2.numerator * d1.denominator,
                         d1.denominator * d2.denominator, _frac(d1p), _frac(d2p))


def _n_min_counts(n_star: int, c1: int, c2: int, cells: int, d1p: Fraction, d2p: Fraction) -> int:
    """:func:`n_min` for the densities d1 = c1/cells and d2 = c2/cells
    (cells > 0), in integers.  With d' = p/q, 1/(d2-d2') is
    cells q / (c2 q - p cells) and 1/(d1'-d1) is cells q / (p cells - c1 q),
    so the order checks cross-multiply and the bounds are ceiling
    divisions: no Fraction of cell-sized integers is formed, nor reduced by
    a gcd."""
    p1, q1, p2, q2 = d1p.numerator, d1p.denominator, d2p.numerator, d2p.denominator
    above = c2 * q2 - p2 * cells  # cells q2 (d2 - d2')
    below = p1 * cells - c1 * q1  # cells q1 (d1' - d1)
    if not (above > 0 and d2p > d1p and below > 0):
        raise ValueError("need d2 > d2' > d1' > d1")
    return 2 * max(-(-n_star // 2), -(-cells * q2 // above), -(-cells * q1 // below))


@dataclass(frozen=True)
class ConstantBundle:
    """Every constant one rigorous construction step depends on."""

    L: Fraction
    eps: Fraction
    tau: Fraction
    lam: Fraction
    M0: int
    N0: int
    P0: int
    ell: int

    def __post_init__(self):
        if self.tau != self.eps**2 / (9 * self.L**2):
            raise ValueError("tau must equal eps^2 / (9 L^2)")
        if not 1 + self.lam * self.ell > self.L**2:  # implies (1+lam)^ell > L^2
            raise ValueError("iteration count too small for the growth condition")

    def anchors(self) -> list[tuple[str, str]]:
        """(name, formula) rows for ledgers; values are exact."""
        return [
            ("no-stretch slack lam", f"(d-d')^3 / (1e10 L^7) = {self.lam}"),
            ("deviation budget eps", f"(d-d')/(40 (2+5L)) = {self.eps}"),
            ("regularity margin tau", f"eps^2/(9 L^2) = {self.tau}"),
            ("probe resolution P0", f"max(4 (6L)^4, 3 (6L)^2/eps) -> {self.P0}"),
            ("scale floor M0", f"1e15 L^11/(d-d')^4 -> {self.M0}"),
            ("aspect floor N0", f"1e10 L^10/(d-d')^4 -> {self.N0}"),
            ("iteration floor ell", f"ceil(L^2/lam) = {self.ell}; (1+lam)^ell > L^2"),
        ]


def rigorous_bundle(L: Rat, d: Rat, d_prime: Rat) -> ConstantBundle:
    """Assemble the full constant set for one rigorous step.

    The deviation budget eps must sit strictly below (d-d')/(20 (2+5L));
    half that threshold is used.
    """
    L, d, dp = _frac(L), _frac(d), _frac(d_prime)
    lam, m_star, n_star = density_gap_constants(L, d, dp)
    eps = (d - dp) / (40 * (2 + 5 * L))
    return ConstantBundle(
        L=L,
        eps=eps,
        tau=eps**2 / (9 * L**2),
        lam=lam,
        M0=m_star,
        N0=n_star,
        P0=containment_scale(L, eps),
        ell=ell_min(L, lam),
    )


# ----------------------------------------------------------------------
# patches and construction steps
# ----------------------------------------------------------------------

def starting_patches() -> tuple[Patch, Patch]:
    """The canonical 5x5 starting pair (closed squares, full boundaries).

    The sparse one keeps every second interior column; the dense one is
    full.  Corner densities are 10/16 and 16/16.
    """
    sparse = from_rows(
        ["11111", "10101", "10101", "10101", "11111"], full_boundary=True
    )
    dense = from_rows(["11111"] * 5, full_boundary=True)
    return sparse, dense


@dataclass(frozen=True)
class BuildParams:
    """Parameters of one alternating-block step (iterated ``ell`` times)."""

    m: int = 1
    P_star: int = 1
    N: int = 1
    ell: int = 1

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("m must be an odd positive integer")
        if self.P_star < 1 or self.N < 1 or self.ell < 1:
            raise ValueError("P_star, N, ell must be positive")


def gap_targets(d1: Rat, d2: Rat) -> tuple[Fraction, Fraction]:
    """Thirds interpolation d1' = d1 + (d2-d1)/3, d2' = d2 - (d2-d1)/3."""
    d1, d2 = _frac(d1), _frac(d2)
    step = (d2 - d1) / 3
    return d1 + step, d2 - step


def alternation_level(m: int, P_star: int, N: int, n_is_one: bool = False,
                      meta: dict | None = None, *, _shared: dict | None = None) -> Level:
    """One construction level: patch 1 alternates 2s into its bottom band,
    patch 2 swaps the roles.  Both extreme bottom blocks repeat the main id,
    so the bottom-left corner of each output restricts to its own input.

    ``_shared`` is a dict local to one build, keyed by (super-block side,
    blocks): a level whose two arrangements an earlier level of the build
    made takes those objects, as :func:`~delone.hierarchy.loads_spec` does
    for repeated text, so their seam tables are built once per build."""
    s = m * P_star
    blocks = 2 * N + 1
    md = dict(meta or {})
    md.setdefault("kind", "alt")
    md.update({"m": str(m), "P_star": str(P_star), "N": str(N)})
    shared = {} if _shared is None else _shared
    if (s, blocks) not in shared:
        shared[s, blocks] = (
            Arrangement.altbottom(s, blocks, main_id=1, alt_id=2),
            Arrangement.altbottom(s, blocks, main_id=2, alt_id=1),
        )
    return Level(shared[s, blocks], anchor=(0, 0), n_is_one=n_is_one, meta=md)


def _check_step_inputs(q1: Patch, q2: Patch) -> int:
    """Validate a closed input pair; returns the half-side M."""
    if q1.width != q1.height or q2.width != q2.height or q1.width != q2.width:
        raise ValueError("inputs must be squares of equal side")
    if q1.width % 2 == 0:
        raise ValueError("closed squares have odd point counts per side (even side)")
    if not (q1.boundary_full() and q2.boundary_full()):
        raise ValueError("inputs must contain all boundary points")
    m_half = (q1.width - 1) // 2
    for q in (q1, q2):
        centered = Patch(q.cells, (-m_half, -m_half))
        if not has_even_column_property(centered):
            raise ValueError("inputs must keep even columns full when centered")
    side = q1.width - 1
    if not corner_density(q2, side) > corner_density(q1, side):
        raise ValueError("patch 2 must have the denser lower-left corner")
    return m_half


def build_new_patches(q1: Patch, q2: Patch, params: BuildParams) -> HierarchySpec:
    """Iterate the alternating-block step ``ell`` times over a closed pair.

    Returns the hierarchy whose base holds the lower-left corners of the
    inputs and whose top-level patches are the two outputs (implicit; sides
    grow by m * P_star * (2N+1) per iteration).
    """
    _check_step_inputs(q1, q2)
    base = [
        Patch(q1.corner().cells, (0, 0)),
        Patch(q2.corner().cells, (0, 0)),
    ]
    levels = [
        alternation_level(params.m, params.P_star, params.N)
        for _ in range(params.ell)
    ]
    return HierarchySpec(base, levels, kind="nonrect", anchored=True)


@dataclass(frozen=True)
class LSchedule:
    """Bi-Lipschitz bounds to defeat, one per outer step, plus the steps
    (1-based) where the block count N is dropped to 1 to keep repetitivity
    windows small."""

    values: tuple[Fraction, ...]
    n1_steps: frozenset[int] = frozenset()

    def __post_init__(self):
        vals = tuple(_frac(v) for v in self.values)
        if any(v < 1 for v in vals):
            raise ValueError("bounds must be >= 1")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("bounds must be nondecreasing")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, step: int) -> Fraction:
        return self.values[step - 1]


def counting_schedule(depth: int, n1_steps: Sequence[int] = ()) -> LSchedule:
    """The default schedule L_n = n."""
    return LSchedule(tuple(Fraction(n) for n in range(1, depth + 1)),
                     n1_steps=frozenset(n1_steps))


@dataclass(frozen=True)
class StepRecord:
    """Ledger row for one outer construction step."""

    step: int
    L: Fraction
    d1: Fraction
    d2: Fraction
    d1p: Fraction
    d2p: Fraction
    m: int
    P_star: int
    N: int
    ell: int
    levels_added: int
    truncated_iterations: int = 0
    bundle: ConstantBundle | None = None
    bracket_ok: bool | None = None
    out_d1: Fraction | None = None
    out_d2: Fraction | None = None


@dataclass
class NonrectBuild:
    spec: HierarchySpec
    steps: list[StepRecord]


def build_delone_spec(
    schedule: LSchedule,
    depth: int,
    mode: str = "toy",
    params: BuildParams | None = None,
    max_levels: int = 64,
    gaps: tuple[Rat, Rat] | None = None,
) -> NonrectBuild:
    """Iterate the construction ``depth`` times along a schedule of bounds.

    ``toy`` uses the caller's small (m, N, ell); ``rigorous`` derives every
    parameter from the current densities and the step's bound.  Rigorous
    iteration counts can exceed any storable number of levels; at most
    ``max_levels`` levels are stored and the remainder is recorded on the
    step ledger (materialization is capped either way, the constants are
    not).  Steps listed in the schedule's ``n1_steps`` run a single
    iteration with N = 1 and are flagged on their levels.
    """
    return _build_steps("nonrect", schedule, depth, mode, params, max_levels, gaps)


def _build_steps(
    kind: str,
    schedule: LSchedule,
    depth: int,
    mode: str,
    params: BuildParams | None,
    max_levels: int,
    gaps: tuple[Rat, Rat] | None = None,
    closing: Level | None = None,
) -> NonrectBuild:
    """The step loop of :func:`build_delone_spec`, shared with the mixed
    construction: ``closing`` (when given) is the level appended after
    each step's alternation levels, and the level budget reserves it.
    Target brackets are only checked on steps that end in alternation.

    The build costs what its distinct content costs.  A rigorous
    iteration takes its N and m from the level's integer popcounts, cell
    count and side (:func:`_n_min_counts`, :func:`_smallest_odd_at_least`),
    never from Fractions of cell-sized integers; only the few densities of
    the step records are Fractions.  Levels with the same (super-block
    side, blocks) share their arrangement objects, through a dict local to
    this build (see :func:`alternation_level`), and every step appends the
    same ``closing`` level."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(schedule.values) < depth:
        raise ValueError("schedule shorter than depth")
    for step in sorted(schedule.n1_steps):
        if not 1 <= step <= depth:
            raise ValueError(f"N=1 step {step} outside the steps 1..{depth}")
    if mode not in ("toy", "rigorous"):
        raise ValueError("mode must be 'toy' or 'rigorous'")
    params = params or BuildParams()
    q1, q2 = starting_patches()
    base = [Patch(q1.corner().cells, (0, 0)), Patch(q2.corner().cells, (0, 0))]
    spec = HierarchySpec(base, [], kind=kind, anchored=True)
    records: list[StepRecord] = []
    budget = max_levels
    reserved = 0 if closing is None else 1
    shared: dict = {}  # see alternation_level
    for step in range(1, depth + 1):
        L = schedule[step]
        top = spec.num_levels
        d1 = spec.density(top, 1)
        d2 = spec.density(top, 2)
        if gaps is None:
            d1p, d2p = gap_targets(d1, d2)
        else:
            d1p, d2p = _frac(gaps[0]), _frac(gaps[1])
            if not (d2 > d2p > d1p > d1):
                raise ValueError(
                    f"step {step}: supplied targets {d1p}, {d2p} do not sit strictly "
                    f"inside the current densities {d1}, {d2}"
                )
        n_is_one = step in schedule.n1_steps
        bundle = None
        if n_is_one:
            m, p_star, n_blocks, ell = 1, 1, 1, 1
        elif mode == "toy":
            m, p_star, n_blocks, ell = params.m, params.P_star, params.N, params.ell
        else:
            bundle = rigorous_bundle(L, d2p, d1p)
            p_star = bundle.P0
            ell = bundle.ell
            m = n_blocks = None  # re-derived per iteration below
        stored = min(ell, budget - reserved)
        if stored <= 0:
            raise ValueError(
                f"step {step}: level budget exhausted; raise max_levels"
            )
        for it in range(stored):
            if bundle is not None:
                cur = spec.num_levels
                c1, c2 = spec.popcounts(cur)
                m_it = _smallest_odd_at_least(bundle.M0, 2 * p_star * (spec.side(cur) // 2))
                n_it = _n_min_counts(bundle.N0, c1, c2, spec.cell_count(cur), d1p, d2p)
            else:
                m_it, n_it = m, n_blocks
            if it == 0:
                m, n_blocks = m_it, n_it
            spec = spec.extended(
                alternation_level(
                    m_it, p_star, n_it, n_is_one=n_is_one,
                    meta={"step": str(step), "L": str(L)}, _shared=shared,
                )
            )
        if closing is not None:
            spec = spec.extended(closing)
        budget -= stored + reserved
        bracket_ok = None
        newtop = spec.num_levels
        out_d1 = spec.density(newtop, 1)
        out_d2 = spec.density(newtop, 2)
        if mode == "rigorous" and not n_is_one and closing is None:
            bracket_ok = bool(out_d1 < d1p and out_d2 > d2p)
        records.append(
            StepRecord(
                step=step, L=L, d1=d1, d2=d2, d1p=d1p, d2p=d2p,
                m=m, P_star=p_star, N=n_blocks, ell=ell,
                levels_added=stored + reserved, truncated_iterations=ell - stored,
                bundle=bundle, bracket_ok=bracket_ok,
                out_d1=out_d1, out_d2=out_d2,
            )
        )
    return NonrectBuild(spec, records)


def _smallest_odd_at_least(num: int, den: int) -> int:
    """The smallest odd positive integer >= num/den (den > 0)."""
    n = max(1, -(-num // den))
    return n if n % 2 else n + 1


# ----------------------------------------------------------------------
# expansion chains
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChainEntry:
    level: int
    n_is_one: bool
    pair: tuple[tuple[int, int], tuple[int, int]]
    expansion_sq: Fraction
    ratio_to_parent_sq: Fraction | None
    exceeds_lambda: bool | None


@dataclass(frozen=True)
class ChainReport:
    entries: tuple[ChainEntry, ...]
    chain_product_sq: Fraction
    L: Fraction
    contradiction: bool


def expansion_chain_report(
    spec: HierarchySpec, f: CandidateMap, lam: Rat | None, L: Rat
) -> ChainReport:
    """Descend the hierarchy comparing bottom-side end-point expansions.

    At each level the walk enters the bottom-row child whose bottom-side
    end points expand the most, recording the expansion and its ratio to
    the parent's.  Two expansions whose ratio exceeds L^2 contradict f
    being L-bi-Lipschitz; levels built with N = 1 are excluded from that
    product (they carry no density gap).
    """
    L = _frac(L)
    lam = None if lam is None else _frac(lam)
    ox, oy = spec.origin(spec.num_levels)
    side = spec.side(spec.num_levels)
    wx0, wy0, wx1, wy1 = f.window
    if not (wx0 <= ox and wy0 <= oy and wx1 >= ox + side - 1 and wy1 >= oy + side - 1):
        raise ValueError("window too small for the top-level frame")

    def expansion_sq(p, q) -> Fraction:
        if p not in f or q not in f:
            raise ValueError(f"end point {p if p not in f else q} not in the domain")
        (fu, fv), (gu, gv) = f(p), f(q)
        return Fraction((fu - gu) ** 2 + (fv - gv) ** 2, (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)

    entries: list[ChainEntry] = []
    cx, cy = ox, oy
    prev = None
    for level in range(spec.num_levels, 0, -1):
        s = spec.side(level)
        pair = ((cx, cy), (cx + s - 1, cy))
        e = expansion_sq(*pair)
        ratio = None if prev is None else e / prev
        exceeds = None
        if lam is not None and ratio is not None:
            exceeds = ratio > (1 + lam) ** 2
        n1 = spec.levels[level - 2].n_is_one if level >= 2 else False
        entries.append(ChainEntry(level, n1, pair, e, ratio, exceeds))
        prev = e
        if level == 1:
            break
        child_side = spec.side(level - 1)
        branch = spec.levels[level - 2].branching
        best, best_col = None, 0
        for col in range(branch):
            bx = cx + col * child_side
            cand = expansion_sq((bx, cy), (bx + child_side - 1, cy))
            if best is None or cand > best:
                best, best_col = cand, col
        cx += best_col * child_side
    included = [en.expansion_sq for en in entries if not en.n_is_one]
    if not included:
        included = [en.expansion_sq for en in entries]
    chain = max(included) / min(included)
    return ChainReport(tuple(entries), chain, L, chain > L**4)
