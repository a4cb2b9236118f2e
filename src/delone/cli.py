"""Command-line front end.

Subcommands: gen, export, stats, count, freq, repetitivity, constants,
bilip, verify.  Rational inputs use a/b syntax; no floating point crosses
into any pass/fail decision.  Exit codes: 0 pass, 1 check failure,
2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import accumulate

from . import choquet, hierarchy, maps, nonrect, patch, rectlab, suites, ue
from .hierarchy import BLOCK_ALIGNED, SLIDING, CapacityError


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _frac_in(lo: Fraction, hi: Fraction | None = None):
    """A converter to a rational x with lo <= x (< hi, when given)."""
    def convert(text: str) -> Fraction:
        x = _frac(text)
        if x < lo or (hi is not None and x >= hi):
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
            raise argparse.ArgumentTypeError(f"not a rational {span}: {text!r}")
        return x
    return convert


def _positive(text: str) -> int:
    """A positive decimal integer."""
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _ints(text: str) -> tuple[int, ...]:
    """A comma list of integers; empty items are skipped."""
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


def _fracs(text: str) -> tuple[Fraction, ...]:
    """A comma list of rationals; the empty string is the empty list."""
    try:
        return tuple(Fraction(t) for t in text.split(",")) if text else ()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of rationals: {text!r}") from exc


def _frac_pair(text: str) -> tuple[Fraction, Fraction]:
    pair = _fracs(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError(f"not two rationals d,d': {text!r}")
    return pair


def _show(x: Fraction, limit: int = 48) -> str:
    """Exact rational when ``str(x)`` is at most ``limit`` characters,
    decimal approximation otherwise, with the lengths of ``str`` of the
    numerator (sign included) and the denominator.  Those lengths come
    from :func:`_digits`, so a long value never goes through ``str`` and a
    short one goes through it once."""
    len_num = _digits(abs(x.numerator)) + (x < 0)
    len_den = _digits(x.denominator)
    if len_num + (x.denominator != 1) * (1 + len_den) <= limit:
        return str(x)
    return f"~{float(x):.12g} ({len_num}/{len_den} digits)"


def _digits(n: int) -> int:
    """The decimal digits of an integer n >= 0, without ``str``.  With b
    bits, n has k = floor((b-1) log10 2) + 1 or k + 1 digits; k is taken
    with a rational just under log10 2, so it is never above the count,
    and comparisons with 10^k, 10^(k+1), ... (one multiplication a step)
    decide."""
    k = (max(n.bit_length(), 1) - 1) * 3010299956639811 // 10**16 + 1
    power = 10**k
    while n >= power:
        k, power = k + 1, power * 10
    return k


def _schedule_from(args, depth: int) -> nonrect.LSchedule:
    vals = args.L_schedule or tuple(Fraction(n) for n in range(1, depth + 1))
    return nonrect.LSchedule(vals, n1_steps=frozenset(args.n1_steps or ()))


# The --params keys: the gen flag each one sets, and the converter of that flag.
_PARAMS = {
    "L_schedule": ("L_schedule", _fracs),
    "depth": ("depth", int),
    "mode": ("mode", str),
    "m": ("m", int),
    "N": ("blocks", int),
    "ell": ("ell", int),
    "P_star": ("p_star", int),
    "d1p": ("d1p", _frac),
    "d2p": ("d2p", _frac),
    "N1_steps": ("n1_steps", _ints),
}


def _apply_param_file(args) -> None:
    """Set gen flags from ``key=value`` lines; an unknown key or a value
    its flag would not take is a one-line error quoting the line."""
    if not args.params:
        return
    with open(args.params) as fh:
        lines = patch._data_lines(fh.read())
    for ln in lines:
        key, eq, val = (t.strip() for t in ln.partition("="))
        if not eq or key not in _PARAMS:
            raise ValueError(f"--params reads {', '.join(_PARAMS)} as key=value, got {ln!r}")
        attr, convert = _PARAMS[key]
        try:
            setattr(args, attr, convert(val))
        except (argparse.ArgumentTypeError, ValueError):
            raise ValueError(f"--params: bad {key} value in {ln!r}") from None


# The gen flags each construction reads, besides --construction, --depth,
# --mode, --params, --out and --ledger; any other one is a usage error.
_GEN_FLAGS = {
    "nonrect": ("m", "blocks", "ell", "p_star", "d1p", "d2p", "L_schedule", "n1_steps"),
    "ue": ("m", "blocks", "ell", "p_star", "L_schedule", "n1_steps"),
    "choquet": ("extreme_points", "simplex_spec", "stripe_rule", "ratio_cap"),
}


def cmd_gen(args) -> int:
    _apply_param_file(args)
    reads = _GEN_FLAGS[args.construction]
    unread = dict.fromkeys(a for flags in _GEN_FLAGS.values() for a in flags
                           if a not in reads and getattr(args, a) is not None)
    if unread:
        names = ", ".join("--" + a.replace("_", "-") for a in unread)
        print(f"gen: --construction {args.construction} does not read {names}", file=sys.stderr)
        return 2
    if args.mode == "rigorous" and any(
        getattr(args, a) is not None for a in ("m", "blocks", "ell", "p_star", "d1p", "d2p")
    ):
        print("gen: rigorous mode derives m, P*, N, ell and the density targets; "
              "overriding them is not allowed", file=sys.stderr)
        return 2
    depth = args.depth
    schedule = _schedule_from(args, depth)
    gaps = None
    if args.d1p is not None or args.d2p is not None:
        if args.d1p is None or args.d2p is None:
            print("gen: d1p and d2p must be given together", file=sys.stderr)
            return 2
        gaps = (args.d1p, args.d2p)
    given = {"m": args.m, "P_star": args.p_star, "N": args.blocks, "ell": args.ell}
    params = nonrect.BuildParams(**{k: v for k, v in given.items() if v is not None})
    lines = [f"construction {args.construction} depth {depth} mode {args.mode}"]
    if args.construction == "nonrect":
        build = nonrect.build_delone_spec(schedule, depth, args.mode, params, gaps=gaps)
        spec, steps = build.spec, build.steps
    elif args.construction == "ue":
        build = ue.build_ue_spec(schedule, depth, args.mode, params)
        spec, steps = build.spec, build.steps
        lines.append(f"limit point density {build.limit_density()}")
        offsets = accumulate(build.level_offsets, ue.delta_product)
        for t, off in zip(range(2, spec.num_levels + 1), offsets, strict=True):
            lines.append(f"offset level 1->{t}: {_show(off)}")
    else:
        seq, e = None, 2 if args.extreme_points is None else args.extreme_points
        if args.simplex_spec:
            loaded = choquet.read_simplex_spec(args.simplex_spec)
            if isinstance(loaded, choquet.ChoquetSeq):
                seq = loaded
            else:
                e = loaded
        cb = choquet.build_choquet_spec(
            e, depth, args.mode, rule=args.stripe_rule or "literal",
            ratio_cap=128 if args.ratio_cap is None else args.ratio_cap, seq=seq,
        )
        spec, steps = cb.spec, []
        rep = choquet.validate_choquet_seq(cb.seq)
        lines.append(f"extreme points {cb.seq.k[0] - 1}; scales {list(cb.seq.p)}; "
                     f"stripe counts {list(cb.seq.r)}")
        lines.append(
            f"separating row {cb.witness.i0}; spread bounds {cb.witness.dbar} > {cb.witness.dbar_prime}"
        )
        lines += _check_lines("seqcheck", rep)
        if not rep.ok:
            _emit(args, spec, lines)
            return 1
    for rec in steps:
        lines.append(
            f"step {rec.step}: L={rec.L} densities {_show(rec.d1)},{_show(rec.d2)} "
            f"targets {_show(rec.d1p)},{_show(rec.d2p)} "
            f"m={rec.m} P*={rec.P_star} N={rec.N} ell={rec.ell} "
            f"(stored {rec.levels_added}, symbolic remainder {rec.truncated_iterations})"
        )
        if rec.bundle is not None:
            for name, formula in rec.bundle.anchors():
                lines.append(f"  constant {name}: {formula}")
        if rec.bracket_ok is not None:
            lines.append(
                f"  corner densities {_show(rec.out_d1)} / {_show(rec.out_d2)} "
                f"{'bracket the targets exactly' if rec.bracket_ok else 'FAIL the target bracket'}"
            )
    rep = hierarchy.validate_scheme(spec)
    lines += _check_lines("check", rep)
    _emit(args, spec, lines)
    if not rep.ok or any(r.bracket_ok is False for r in steps):
        return 1
    return 0


def _check_lines(prefix: str, rep: hierarchy.SchemeReport) -> list[str]:
    """The ledger lines of a report: ``<prefix> <row>: pass|FAIL <witness>``."""
    return [f"{prefix} {row.name}: {'pass' if row.ok else 'FAIL'} {row.witness}" for row in rep.rows]


def _emit(args, spec, lines) -> None:
    hierarchy.write_spec(args.out, spec)
    ledger_path = args.ledger or (os.path.splitext(args.out)[0] + ".ledger.txt")
    with open(ledger_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} and {ledger_path}")


def _load_target(args) -> patch.Patch:
    if args.patch:
        return patch.read_patch(args.patch)
    spec = hierarchy.read_spec(args.spec)
    return hierarchy.materialize(spec, args.level, args.id, cap=args.cell_cap)


def cmd_export(args) -> int:
    if args.spec and not args.closed and args.format != "points":
        # streamed off the hierarchy a strip at a time, charged to the cap whole
        spec = hierarchy.read_spec(args.spec)
        hierarchy.write_window(args.out, spec, args.level, args.id, args.format, cap=args.cell_cap)
    else:
        p = _load_target(args)
        if args.closed:
            p = p.closed()
        if args.format == "points":
            patch.write_points(args.out, p)
        else:
            patch.write_cells(args.out, args.format, [p.cells], p.width, p.height, p.origin, p.full_boundary)
    print(f"wrote {args.out}")
    return 0


def cmd_stats(args) -> int:
    spec = hierarchy.read_spec(args.spec)
    if args.level is not None:
        spec.side(args.level)  # an out-of-range level exits 2 before any output
    print("level\tside\tpatches\tid\tpoints\tdensity")
    levels = range(1, spec.num_levels + 1) if args.level is None else [args.level]
    for t in levels:
        pops = spec.popcounts(t)
        for pid in range(1, spec.k(t) + 1):
            d = spec.density(t, pid)
            print(f"{t}\t{spec.side(t)}\t{spec.k(t)}\t{pid}\t{pops[pid - 1]}\t{d}")
    if args.delone_params:
        for pid, bp in enumerate(spec.base, start=1):
            dp = maps.delone_params_of(bp)
            print(f"# base patch {pid}: separation {dp.separation}, covering {dp.covering}")
    return 0


def cmd_count(args) -> int:
    spec = hierarchy.read_spec(args.spec)
    needle = patch.read_patch(args.needle)
    mode = BLOCK_ALIGNED if args.mode == "block_aligned" else SLIDING
    cnt = hierarchy.count_occurrences(spec, needle, args.level, args.id, mode, cap=args.cell_cap)
    print(cnt)
    return 0


def cmd_freq(args) -> int:
    spec = hierarchy.read_spec(args.spec)
    needle = patch.read_patch(args.needle)
    rep = ue.frequency_convergence_report(spec, needle, args.level_from, args.level_to, cap=args.cell_cap)
    print("level\tpatch_id\tneedle_id\tdensity_num\tdensity_den\tbracket_lo\tbracket_hi")
    for row in rep.rows:
        nid = rep.needle_id if rep.needle_id is not None else "-"
        print(
            f"{row.level}\t{row.pid}\t{nid}\t{row.density.numerator}\t{row.density.denominator}"
            f"\t{row.bracket_lo}\t{row.bracket_hi}"
        )
    return 0


def cmd_repetitivity(args) -> int:
    p = _load_target(args)
    r = hierarchy.estimate_repetitivity(p, args.r, cap=args.cell_cap)
    if r is None:
        print("window too small")
        return 1
    print(r)
    return 0


def cmd_constants(args) -> int:
    rows = []
    if args.eps is not None and args.P is not None:
        lam, m0, n0 = nonrect.regularity_constants(args.L, args.eps, args.P)
        rows += [
            ("no-stretch slack lam = eps^2/(108 P L^2)", lam),
            ("scale floor M0 = ceil(108 P^2 L^2 (L+4)/eps^2)", m0),
            ("aspect floor N0 = 2 + ceil(216 L^2 P (3L^2+P+1)/eps^2)", n0),
        ]
    if args.eps is not None:
        rows.append(
            ("probe resolution P0 = ceil(max(4 (6L)^4, 3 (6L)^2/eps))",
             nonrect.containment_scale(args.L, args.eps))
        )
    if args.d is not None and args.dp is not None:
        lam, ms, ns = nonrect.density_gap_constants(args.L, args.d, args.dp)
        rows += [
            ("gap slack lam = (d-d')^3/(1e10 L^7)", lam),
            ("scale floor M* = ceil(1e15 L^11/(d-d')^4)", ms),
            ("aspect floor N* = ceil(1e10 L^10/(d-d')^4)", ns),
            ("iteration floor ell = ceil(L^2/lam)", nonrect.ell_min(args.L, lam)),
        ]
    if not rows:
        print("constants: give --eps [--P] and/or --d --dp", file=sys.stderr)
        return 2
    for name, val in rows:
        print(f"{name}\t{val}")
    return 0


def cmd_bilip(args) -> int:
    grid = rectlab.GridSpec(args.grid[0], args.grid[1], args.grid[2])
    f = maps.read_map(args.map, window=grid.window)
    viol = rectlab.check_no_stretch(f, grid, args.lam)
    print(f"violations\t{len(viol)}")
    for v in viol[:20]:
        print(f"violation\tk={v.k}\ti={v.i}\tj={v.j}\tat={v.point}\tkind={v.kind}")
    if args.tau is not None:
        fh = maps.hat_extend(f)
        res = rectlab.find_regular_square(fh, grid, args.tau)
        print(f"regular_square\t{res.k_star if res.k_star is not None else 'none'}")
        if res.k_star is not None:
            dev = rectlab.coarse_derivative_deviation(fh, grid, res.k_star)
            print(f"deviation_sq\t{dev.max_sq}\t~{dev.max:.6f}")
    if args.expand is not None:
        try:
            res = rectlab.expanding_pair_search(f, grid, args.lam, *args.expand)
            print(f"expanding_witness\t{res.witness}\t{res.note}")
        except rectlab.SquareDensityError as exc:
            print(f"expanding_witness\tnone\t{exc}")
    return 0


def cmd_verify(args) -> int:
    kw = {k: getattr(args, k) for k in ("trials", "seed", "depth") if getattr(args, k) is not None}
    rows = suites.run_suite(args.suite, **kw)
    print("suite\tcheck\tstatus\tdetail")
    for suite, r in rows:
        print(f"{suite}\t{r.name}\t{'pass' if r.ok else 'FAIL'}\t{r.witness}")
    return 0 if all(r.ok for _, r in rows) else 1


def _target_args(p: argparse.ArgumentParser, patch_help: str) -> None:
    """The patch that export and repetitivity read: one of --spec or --patch."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec")
    src.add_argument("--patch", help=patch_help)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--id", type=int, default=1)
    p.add_argument("--cell-cap", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``delone`` parser, built on first use and shared by every
    :func:`main` call; parsing never changes it."""
    ap = argparse.ArgumentParser(prog="delone", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a hierarchy descriptor and its constants ledger")
    g.add_argument("--construction", choices=["nonrect", "ue", "choquet"], required=True)
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--mode", choices=["toy", "rigorous"], default="toy")
    g.add_argument("--m", type=int)
    g.add_argument("--blocks", type=int, help="alternation count N")
    g.add_argument("--ell", type=int)
    g.add_argument("--p-star", dest="p_star", type=int)
    g.add_argument("--d1p", type=_frac, help="lower density target (rational)")
    g.add_argument("--d2p", type=_frac, help="upper density target (rational)")
    g.add_argument("--L-schedule", dest="L_schedule", type=_fracs, help="comma list of rationals")
    g.add_argument("--n1-steps", dest="n1_steps", type=_ints,
                   help="comma list of steps run with N=1")
    simplex = g.add_mutually_exclusive_group()
    simplex.add_argument("--extreme-points", type=int, help="default 2")
    simplex.add_argument("--simplex-spec", help="file with extreme_points <e> or matrices <path>")
    g.add_argument("--stripe-rule", choices=["literal", "scaled"], help="default literal")
    g.add_argument("--ratio-cap", type=int, help="default 128")
    g.add_argument("--params", help="key=value parameter file")
    g.add_argument("--out", required=True)
    g.add_argument("--ledger")
    g.set_defaults(fn=cmd_gen)

    e = sub.add_parser("export", help="export a materialized patch")
    _target_args(e, "export a .dpf file directly")
    e.add_argument("--closed", action="store_true", help="add the closure row/column")
    e.add_argument("--format", choices=["pbm", "points", "dpf"], required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)

    s = sub.add_parser("stats", help="per-level point counts and densities")
    s.add_argument("--spec", required=True)
    s.add_argument("--level", type=int)
    s.add_argument("--delone-params", action="store_true")
    s.set_defaults(fn=cmd_stats)

    c = sub.add_parser("count", help="exact occurrence count of a needle patch")
    c.add_argument("--spec", required=True)
    c.add_argument("--needle", required=True)
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--id", type=int, required=True)
    c.add_argument("--mode", choices=["block_aligned", "sliding"], default="sliding")
    c.add_argument("--cell-cap", type=int, default=None)
    c.set_defaults(fn=cmd_count)

    fq = sub.add_parser("freq", help="sliding densities with convergence brackets (TSV)")
    fq.add_argument("--spec", required=True)
    fq.add_argument("--needle", required=True)
    fq.add_argument("--level-from", type=int, required=True)
    fq.add_argument("--level-to", type=int, required=True)
    fq.add_argument("--cell-cap", type=int, default=None)
    fq.set_defaults(fn=cmd_freq)

    rp = sub.add_parser("repetitivity", help="smallest window holding every small pattern")
    _target_args(rp, "read a .dpf file directly")
    rp.add_argument("--r", type=int, required=True)
    rp.set_defaults(fn=cmd_repetitivity)

    ct = sub.add_parser("constants", help="exact constant calculators with formula anchors")
    ct.add_argument("--L", type=_frac, required=True)
    ct.add_argument("--eps", type=_frac)
    ct.add_argument("--P", type=int)
    ct.add_argument("--d", type=_frac)
    ct.add_argument("--dp", type=_frac)
    ct.set_defaults(fn=cmd_constants)

    b = sub.add_parser("bilip", help="probe-grid analysis of a candidate map")
    b.add_argument("--map", required=True)
    b.add_argument("--grid", nargs=3, type=int, metavar=("M", "N", "P"), required=True)
    b.add_argument("--lambda", dest="lam", type=_frac_in(Fraction(0)), required=True,
                   help="stretch slack, a rational >= 0")
    b.add_argument("--tau", type=_frac_in(Fraction(0), Fraction(1)), help="a rational in [0, 1)")
    b.add_argument("--expand", type=_frac_pair,
                   help="d,d' densities for the expanding-pair search")
    b.set_defaults(fn=cmd_bilip)

    v = sub.add_parser("verify", help="run a named exact-check suite (TSV)")
    v.add_argument("--suite", required=True)
    v.add_argument("--trials", type=_positive)
    v.add_argument("--seed", type=int)
    v.add_argument("--depth", type=_positive)
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    # exact values have no digit limit while a command runs; the caller's
    # limit is put back after it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        ap = build_parser()
        args = ap.parse_args(argv)
        try:
            return args.fn(args)
        except CapacityError as exc:
            print(f"resource cap: {exc}", file=sys.stderr)
            return 3
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
