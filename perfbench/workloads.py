"""The three benchmark workloads: inputs, jobs and answer checks.

A workload builds its inputs once per set-up, then hands out rounds of
jobs.  Every round of a workload has the same job slots (spec, level,
needle shape, command), so rounds cost about the same; the run seed picks
pids, maps, curves, pooled queries and the order of jobs inside a round.
Jobs go through ``delone.cli.main`` in-process where a CLI command exists
and through the public library function otherwise.

Each job carries its own check.  Where an independent oracle is feasible
the check uses it (exact Python-int distortion, an integer near-curve
count, the recursive count against a full scan, the freq bracket, the
popcount from the count matrices); otherwise it compares with the answer
the original implementation gave for a fixed query pool (``pool.json``,
written by ``make_pool.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from delone import choquet, cli, hierarchy, maps, nonrect, patch, rectlab, sampling, ue

POOL_PATH = Path(__file__).with_name("pool.json")

# needle shapes (w, h); the 4x4 shape is the base patches themselves
SHAPES = [(4, 4), (2, 2), (3, 3), (2, 4), (4, 2)]
WINDOWS_PER_SHAPE = 3

# stretched maps scale every image by this; doubled image differences then
# reach about 6e9 and their squares leave the int64 range
STRETCH = 3_000_000_000

BILIP_ARGS = ["--lambda", "1/10", "--tau", "1/10", "--expand", "3/4,1/2"]


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right, else why not


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``delone.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def expect_rc(rc: int, want: int = 0) -> str | None:
    return None if rc == want else f"exit code {rc}, want {want}"


SPEC_BUILDERS = {
    "ue5": lambda: ue.build_ue_spec(None, 5, mode="toy").spec,
    "choquet4": lambda: choquet.build_choquet_spec(2, 4, mode="toy", ratio_cap=128).spec,
    "choquet3": lambda: choquet.build_choquet_spec(2, 3, mode="toy", ratio_cap=128).spec,
    "nonrect3": lambda: nonrect.build_delone_spec(nonrect.counting_schedule(3), 3, mode="toy").spec,
}


def build_specs(*keys: str) -> dict[str, hierarchy.HierarchySpec]:
    """The named specs of ``SPEC_BUILDERS``."""
    return {key: SPEC_BUILDERS[key]() for key in keys}


def needle_pool(spec: hierarchy.HierarchySpec) -> dict[str, patch.Patch]:
    """Base patches plus fixed windows of each shape cut from level-2 patches.

    Window positions come from a fixed generator, not from the run seed,
    so that the same needles have pooled answers in every run.
    """
    out = {f"base{i}": p for i, p in enumerate(spec.base, start=1)}
    rng = random.Random(20140130)
    level2 = [hierarchy.materialize(spec, 2, pid) for pid in range(1, spec.k(2) + 1)]
    side = spec.side(2)
    for w, h in SHAPES[1:]:
        seen: set[bytes] = set()
        n = 0
        while n < WINDOWS_PER_SHAPE:
            pid = rng.randrange(len(level2))
            x, y = rng.randrange(side - w + 1), rng.randrange(side - h + 1)
            win = level2[pid].subpatch(x, y, w, h)
            key = win.cells.tobytes()
            if key in seen:
                continue
            seen.add(key)
            out[f"w{w}x{h}_{n}"] = patch.Patch(win.cells)
            n += 1
    return out


# ----------------------------------------------------------------------
# seam-deep: sliding counts and freq far over the cell cap
# ----------------------------------------------------------------------

class SeamDeep:
    """Sliding ``count`` and ``freq`` on hierarchies far over the cell cap.

    The seam/band recursion in ``hierarchy`` does nearly all the work;
    the numpy kernels only scan thin bands.
    """

    name = "seam-deep"
    deadline_s = 60.0
    min_rounds = 2
    # (spec, command, level or level range); pids are picked per round
    SLOTS = [
        *[("ue5", "count", 8)] * 6, *[("ue5", "count", 9)] * 2,
        *[("ue5", "count", 10)] * 3, ("ue5", "count", 11),
        ("choquet4", "count", 4), ("choquet4", "count", 4), ("choquet4", "count", 4),
        ("ue5", "freq", 9), ("ue5", "freq", 10), ("choquet4", "freq", 4),
    ]

    def __init__(self, pool: dict):
        self.pool = pool["seam-deep"]

    def setup(self, work: Path, rng: random.Random) -> dict:
        inp: dict = {"specs": {}, "needles": {}, "paths": {}}
        for key, spec in build_specs("ue5", "choquet4").items():
            path = work / f"{key}.dhs"
            hierarchy.write_spec(path, spec)
            inp["specs"][key] = spec
            inp["paths"][key] = str(path)
            needles = needle_pool(spec)
            inp["needles"][key] = {}
            for nm, nd in needles.items():
                npath = work / f"{key}-{nm}.dpf"
                patch.write_patch(npath, nd)
                inp["needles"][key][nm] = (nd, str(npath))
        return inp

    def facts(self, inp: dict) -> dict:
        out = {}
        for key, spec in inp["specs"].items():
            top = spec.num_levels
            out[key] = {
                "levels": top,
                "top_side": spec.side(top),
                "top_cells": spec.cell_count(top),
                "patches_per_level": spec.k(top),
                "arrangements": sorted({type(a).__name__ for lv in spec.levels for a in lv.arrangements}),
                "needles": {nm: f"{nd.width}x{nd.height}" for nm, (nd, _) in inp["needles"][key].items()},
            }
        return out

    def round_jobs(self, inp: dict, rng: random.Random, r: int) -> list[Job]:
        jobs = []
        pid_cycle: dict[tuple[str, int], list[int]] = {}
        for i, (key, cmd, level) in enumerate(self.SLOTS):
            spec = inp["specs"][key]
            # needle by slot and round, so that every seed runs the same
            # needle mix; the seed picks pids and the order of jobs
            w, h = SHAPES[(i + r) % len(SHAPES)]
            names = sorted(nm for nm, (nd, _) in inp["needles"][key].items() if (nd.width, nd.height) == (w, h))
            nm = names[(i + r) % len(names)]
            npath = inp["needles"][key][nm][1]
            if cmd == "count":
                # slots sharing a level take distinct pids
                k = spec.k(level)
                cyc = pid_cycle.setdefault((key, level), [])
                if not cyc:
                    cyc.extend(rng.sample(range(1, k + 1), k))
                pid = cyc.pop()
                jobs.append(self._count_job(inp, key, nm, npath, level, pid))
            else:
                jobs.append(self._freq_job(inp, key, nm, npath, level))
        rng.shuffle(jobs)
        return jobs

    def _count_job(self, inp, key, nm, npath, level, pid) -> Job:
        want = self.pool["counts"][key][nm][str(level)][pid - 1]
        argv = ["count", "--spec", inp["paths"][key], "--needle", npath,
                "--level", str(level), "--id", str(pid)]

        def check(res):
            rc, out = res
            bad = expect_rc(rc)
            if bad:
                return bad
            got = int(out.strip())
            return None if got == want else f"count {got}, pooled {want}"

        return Job(f"count-L{level}", f"count {key} L{level} pid {pid} {nm}",
                   lambda: call_cli(argv), check)

    def _freq_job(self, inp, key, nm, npath, level_to) -> Job:
        spec = inp["specs"][key]
        want_sha = self.pool["freq"][key][nm][str(level_to)]
        counts = self.pool["counts"][key][nm]
        argv = ["freq", "--spec", inp["paths"][key], "--needle", npath,
                "--level-from", "1", "--level-to", str(level_to)]

        def check(res):
            rc, out = res
            bad = expect_rc(rc)
            if bad:
                return bad
            rows = out.strip().splitlines()[1:]
            if len(rows) != sum(spec.k(t) for t in range(1, level_to + 1)):
                return f"{len(rows)} freq rows"
            for row in rows:
                t, j, _nid, num, den, lo, hi = row.split("\t")
                dens = Fraction(int(num), int(den))
                if not Fraction(lo) <= dens <= Fraction(hi):
                    return f"level {t} pid {j}: density {dens} outside [{lo}, {hi}]"
                if dens * spec.cell_count(int(t)) != counts[t][int(j) - 1]:
                    return f"level {t} pid {j}: density {dens} disagrees with the pooled count"
            return None if sha256_text(out) == want_sha else "freq TSV differs from the pooled output"

        return Job(f"freq-1..{level_to}", f"freq {key} 1..{level_to} {nm}",
                   lambda: call_cli(argv), check)


# ----------------------------------------------------------------------
# window-kernels: materialized windows of at most 2^24 cells
# ----------------------------------------------------------------------

class WindowKernels:
    """Materialized windows of at most 2^24 cells: export, repetitivity, scans.

    The numpy kernels (materialize, scan_count, estimate_repetitivity, the
    PBM/DPF dumps) do the work; the seam recursion never runs in a job.
    """

    name = "window-kernels"
    deadline_s = 60.0
    min_rounds = 2
    EXPORTS = [("ue5", 7, "pbm"), ("ue5", 7, "dpf"), ("choquet3", 3, "pbm"), ("choquet3", 3, "dpf")]
    # r = 4 on ue level 6 (972^2) takes about 8 s, more than a whole round
    REPETITIVITY = [("ue5", 5, 1), ("ue5", 5, 2), ("ue5", 5, 4), ("ue5", 6, 1), ("ue5", 6, 2),
                    ("nonrect3", 4, 1), ("nonrect3", 4, 2), ("nonrect3", 4, 4)]
    SCANS = [("ue5", 7), ("choquet3", 3)]

    def __init__(self, pool: dict):
        self.pool = pool["window-kernels"]
        self._oracle: dict = {}

    def setup(self, work: Path, rng: random.Random) -> dict:
        specs = build_specs("ue5", "choquet3", "nonrect3")
        inp: dict = {"specs": {}, "paths": {}, "windows": {}, "work": work}
        for key in specs:
            path = work / f"{key}.dhs"
            hierarchy.write_spec(path, specs[key])
            inp["specs"][key] = specs[key]
            inp["paths"][key] = str(path)
        for key, level in self.SCANS:
            pid = rng.randint(1, specs[key].k(level))
            inp["windows"][key] = (level, pid, hierarchy.materialize(specs[key], level, pid))
        return inp

    def facts(self, inp: dict) -> dict:
        out = {}
        for key, spec in inp["specs"].items():
            out[key] = {"levels": spec.num_levels, "top_side": spec.side(spec.num_levels)}
        out["exports"] = [f"{k} L{lv} ({inp['specs'][k].side(lv)}^2 cells) {fmt}" for k, lv, fmt in self.EXPORTS]
        out["repetitivity"] = [f"{k} L{lv} ({inp['specs'][k].side(lv)}^2) r={r}" for k, lv, r in self.REPETITIVITY]
        out["scan_windows"] = {k: f"L{lv} pid {pid}, {w.width}x{w.height}" for k, (lv, pid, w) in inp["windows"].items()}
        out["scan_needles"] = "base patches, 4x4"
        return out

    def round_jobs(self, inp: dict, rng: random.Random, r: int) -> list[Job]:
        jobs = []
        for key, level, fmt in self.EXPORTS:
            pid = rng.randint(1, inp["specs"][key].k(level))
            jobs.append(self._export_job(inp, key, level, pid, fmt))
        for key, level, rr in self.REPETITIVITY:
            pid = rng.randint(1, inp["specs"][key].k(level))
            jobs.append(self._repetitivity_job(inp, key, level, pid, rr))
        for key, _level in self.SCANS:
            nid = 1 + r % len(inp["specs"][key].base)
            jobs.append(self._scan_job(inp, key, nid))
        rng.shuffle(jobs)
        return jobs

    def _export_job(self, inp, key, level, pid, fmt) -> Job:
        spec = inp["specs"][key]
        out_path = inp["work"] / f"export.{fmt}"
        want_sha = self.pool["exports"][f"{key}:{level}:{pid}:{fmt}"]
        argv = ["export", "--spec", inp["paths"][key], "--level", str(level), "--id", str(pid),
                "--format", fmt, "--out", str(out_path)]

        def check(res):
            rc, out = res
            try:
                bad = expect_rc(rc)
                if bad:
                    return bad
                text = out_path.read_text()
                side = spec.side(level)
                if fmt == "pbm":
                    magic, dims, body = text.split("\n", 2)
                    ok = magic == "P1" and dims.split() == [str(side), str(side)]
                else:
                    head, body = text.split("\n", 1)
                    ok = head.split()[:3] == ["PATCH", str(side), str(side)]
                if not ok:
                    return f"header does not describe a {side}x{side} window"
                ones = body.count("1")
                want_ones = spec.popcounts(level)[pid - 1]
                if ones != want_ones:
                    return f"{ones} occupied cells, count matrices give {want_ones}"
                return None if sha256_file(out_path) == want_sha else "file differs from the pooled export"
            finally:
                out_path.unlink(missing_ok=True)

        return Job(f"export-{fmt}", f"export {key} L{level} pid {pid} {fmt}", lambda: call_cli(argv), check)

    def _repetitivity_job(self, inp, key, level, pid, rr) -> Job:
        want = self.pool["repetitivity"][f"{key}:{level}:{pid}:{rr}"]
        argv = ["repetitivity", "--spec", inp["paths"][key], "--level", str(level), "--id", str(pid),
                "--r", str(rr)]

        def check(res):
            rc, out = res
            if want is None:
                bad = expect_rc(rc, 1)
                return bad or (None if out.strip() == "window too small" else f"output {out.strip()!r}")
            bad = expect_rc(rc)
            if bad:
                return bad
            got = int(out.strip())
            return None if got == want else f"radius {got}, pooled {want}"

        return Job(f"repetitivity-r{rr}", f"repetitivity {key} L{level} pid {pid} r={rr}",
                   lambda: call_cli(argv), check)

    def _scan_job(self, inp, key, nid) -> Job:
        spec = inp["specs"][key]
        level, pid, window = inp["windows"][key]
        needle = spec.base[nid - 1]

        def check(got):
            okey = (key, level, pid, nid)
            if okey not in self._oracle:
                self._oracle[okey] = hierarchy.count_occurrences(spec, needle, level, pid)
            want = self._oracle[okey]
            return None if got == want else f"scan {got}, recursive count {want}"

        return Job("scan", f"scan {key} L{level} pid {pid} base{nid}",
                   lambda: hierarchy.scan_count(window.cells, needle), check)


# ----------------------------------------------------------------------
# exact-checks: pure-Python exact arithmetic
# ----------------------------------------------------------------------

class ExactChecks:
    """Many small jobs of exact arithmetic; no hierarchy kernels.

    The stretched maps, whose doubled image differences reach about 6e9
    and whose squares overflow int64, are not timed jobs: they fail on
    the current program, so they run as defect probes (``defect_probes``)
    whose results are reported beside the metrics.
    """

    name = "exact-checks"
    deadline_s = 30.0
    min_rounds = 3
    # map sizes of the map jobs: a ladder from 9x9 to 16x17 whose job cost
    # grows about 1.17x a step.  The same in every round.
    MAP_SIZES = [(n, n + d) for n in range(9, 17) for d in (0, 1)]
    # stretched 2x1 maps: one pair each, so a wrong answer cannot hang
    PROBES = 3
    # As many near-curve jobs (the cheapest) as there are jobs dearer than
    # any map job (verify, bilip, brute force, gen, stats), so that the
    # median job lies in the middle of the map-job ladder.  The host's
    # speed switches between phases about 1.7x apart; on the ladder the
    # median moves smoothly with the share of time spent in each phase,
    # where inside a band of jobs of one size it jumps between the two.
    CURVE_JOBS = 15
    GENS = [("nonrect", 1), ("ue", 1), ("choquet", 2)]

    def __init__(self, pool: dict):
        self.pool = pool["exact-checks"]

    def setup(self, work: Path, rng: random.Random) -> dict:
        inp: dict = {"work": work, "maps": {}}
        for name, entry in self.pool["bilip"].items():
            m, n, _p = entry["grid"]
            f = sampling.random_bilip_map(random.Random(entry["map_seed"]), 2 * m * n + 1, m + 1)
            path = work / f"{name}.map"
            maps.write_map(path, f)
            inp["maps"][name] = (str(path), entry)
        return inp

    def facts(self, inp: dict) -> dict:
        return {
            "verify": "suite all, --trials 20",
            "bilip_grids": sorted({"x".join(map(str, e["grid"])) for _, e in inp["maps"].values()}),
            "map_sizes": [f"{w}x{h}" for w, h in self.MAP_SIZES],
            "defect_probes": f"{self.PROBES} extension_certificate on 2x1 maps, images times 3e9",
            "brute_force_points": sorted({len(e["points"]) for e in self.pool["brute_force"].values()}),
            "rigorous_gen": [f"{c} depth {d}" for c, d in self.GENS],
        }

    def round_jobs(self, inp: dict, rng: random.Random, r: int) -> list[Job]:
        units: list[list[Job]] = [[self._verify_job(rng.randrange(10**6))]]
        for name in rng.sample(sorted(inp["maps"]), len(inp["maps"])):
            units.append([self._bilip_job(inp, name)])
        for w, h in self.MAP_SIZES:
            units.append([self._map_job(sampling.random_bilip_map(rng, w, h), "extension")])
        for n in (7, 8):
            sets = sorted(k for k, e in self.pool["brute_force"].items() if len(e["points"]) == n)
            units.append([self._brute_force_job(rng.choice(sets))])
        for _ in range(self.CURVE_JOBS):
            units.append([self._curve_job(*random_curve(rng))])
        for construction, depth in self.GENS:
            units.append(self._gen_stats_jobs(inp, construction, depth))
        rng.shuffle(units)
        return [job for unit in units for job in unit]

    def defect_probes(self, rng: random.Random) -> list[Job]:
        """Stretched-map certificates, run once outside the timed jobs."""
        jobs = []
        for _ in range(self.PROBES):
            f = sampling.random_bilip_map(rng, 2, 1)
            f = maps.CandidateMap(f.window, {p: (u * STRETCH, v * STRETCH) for p, (u, v) in f.images.items()})
            jobs.append(self._map_job(f, "extension-stretched"))
        return jobs

    def _verify_job(self, seed: int) -> Job:
        argv = ["verify", "--suite", "all", "--trials", "20", "--seed", str(seed)]
        want_rows = self.pool["verify_rows"]

        def check(res):
            rc, out = res
            bad = expect_rc(rc)
            if bad:
                return bad
            rows = out.strip().splitlines()[1:]
            failed = [r for r in rows if r.split("\t")[2] != "pass"]
            if failed:
                return f"suite rows failed: {failed[:3]}"
            return None if len(rows) == want_rows else f"{len(rows)} suite rows, want {want_rows}"

        return Job("verify", f"verify all seed {seed}", lambda: call_cli(argv), check)

    def _bilip_job(self, inp, name) -> Job:
        path, entry = inp["maps"][name]
        argv = ["bilip", "--map", path, "--grid", *map(str, entry["grid"]), *BILIP_ARGS]

        def check(res):
            rc, out = res
            bad = expect_rc(rc)
            if bad:
                return bad
            return None if sha256_text(out) == entry["stdout_sha256"] else "bilip output differs from the pooled one"

        return Job("bilip", f"bilip {name} grid {entry['grid']}", lambda: call_cli(argv), check)

    def _map_job(self, f: maps.CandidateMap, kind: str) -> Job:
        def check(got):
            want = exact_extension_certificate(f)
            return None if tuple(got) == want else f"certificate {got}, exact {want}"

        x0, y0, x1, y1 = f.window
        return Job(kind, f"{kind} {x1 - x0 + 1}x{y1 - y0 + 1}", lambda: maps.extension_certificate(f), check)

    def _brute_force_job(self, name) -> Job:
        entry = self.pool["brute_force"][name]
        pts = [tuple(p) for p in entry["points"]]
        box = tuple(entry["box"])

        def check(res):
            want = Fraction(entry["bilip_sq"])
            if res.bilip_sq != want:
                return f"bilip^2 {res.bilip_sq}, pooled {want}"
            return witness_problem(pts, list(res.images), box, want)

        return Job("brute-force", f"brute force {len(pts)} points", lambda: rectlab.brute_force_min_bilip(pts, box), check)

    def _curve_job(self, curve: rectlab.Curve, t: int) -> Job:
        def check(got):
            want = near_curve_count(curve, t)
            return None if got == want else f"count {got}, exact {want}"

        return Job("near-curve", f"near-curve {len(curve.vertices)} vertices T={t}",
                   lambda: rectlab.count_lattice_near_curve(curve, t), check)

    def _gen_stats_jobs(self, inp, construction: str, depth: int) -> list[Job]:
        key = f"{construction}:{depth}"
        want = self.pool["rigorous"][key]
        out = inp["work"] / f"rig-{construction}.dhs"
        ledger = inp["work"] / f"rig-{construction}.ledger.txt"
        gen_argv = ["gen", "--construction", construction, "--depth", str(depth), "--mode", "rigorous",
                    "--out", str(out)]

        def check_gen(res):
            rc, _ = res
            bad = expect_rc(rc)
            if bad:
                return bad
            if any("FAIL" in ln for ln in ledger.read_text().splitlines()):
                return "ledger reports a failed check"
            return None if sha256_file(out) == want["dhs_sha256"] else ".dhs differs from the pooled one"

        def check_stats(res):
            rc, text = res
            try:
                bad = expect_rc(rc)
                if bad:
                    return bad
                return None if sha256_text(text) == want["stats_sha256"] else "stats output differs from the pooled one"
            finally:
                out.unlink(missing_ok=True)
                ledger.unlink(missing_ok=True)

        return [
            Job("gen-rigorous", f"gen {construction} depth {depth} rigorous", lambda: call_cli(gen_argv), check_gen),
            Job("stats", f"stats {construction} depth {depth} rigorous", lambda: call_cli(["stats", "--spec", str(out)]),
                check_stats),
        ]


WORKLOADS = {w.name: w for w in (SeamDeep, WindowKernels, ExactChecks)}


# ----------------------------------------------------------------------
# independent oracles (plain Python integers)
# ----------------------------------------------------------------------

def _extreme_ratios(points, twice) -> tuple[Fraction, Fraction]:
    """Exact max and min of |F(p)-F(q)|^2 / (4 |p-q|^2) over all pairs."""
    hi_n, hi_d = 0, 1
    lo_n, lo_d = None, None
    n = len(points)
    for i in range(n):
        px, py = points[i]
        pu, pv = twice[i]
        for j in range(i + 1, n):
            qx, qy = points[j]
            qu, qv = twice[j]
            d = 4 * ((px - qx) ** 2 + (py - qy) ** 2)
            num = (pu - qu) ** 2 + (pv - qv) ** 2
            if num * hi_d > hi_n * d:
                hi_n, hi_d = num, d
            if lo_n is None or num * lo_d < lo_n * d:
                lo_n, lo_d = num, d
    return Fraction(hi_n, hi_d), Fraction(lo_n, lo_d)


def exact_extension_certificate(f: maps.CandidateMap):
    """(L^2, Lhat^2, Lhat^2 <= 36 L^2) from the definitions, in Python ints.

    The extension takes, at a point outside the domain, the value of its
    right neighbour shifted half a step left; doubled values keep it integral.
    """
    dom = sorted(f.images)
    hi, lo = _extreme_ratios(dom, [(2 * u, 2 * v) for u, v in (f.images[p] for p in dom)])
    lsq = max(hi, 1 / lo)
    x0, y0, x1, y1 = f.window
    pts, twice = [], []
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if (x, y) in f.images:
                u, v = f.images[(x, y)]
                twice.append((2 * u, 2 * v))
            else:
                u, v = f.images[(x + 1, y)]
                twice.append((2 * u - 1, 2 * v))
            pts.append((x, y))
    hi, lo = _extreme_ratios(pts, twice)
    hsq = max(hi, 1 / lo)
    return (lsq, hsq, hsq <= 36 * lsq)


def witness_problem(points, images, box, bilip_sq: Fraction) -> str | None:
    """Why ``images`` is not an injective map into ``box`` with distortion^2
    exactly ``bilip_sq``, or None when it is."""
    x0, y0, x1, y1 = box
    if len(set(images)) != len(images) or len(images) != len(points):
        return "witness is not injective"
    if any(not (x0 <= u <= x1 and y0 <= v <= y1) for u, v in images):
        return "witness leaves the box"
    worst = Fraction(1)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            s = (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2
            t = (images[i][0] - images[j][0]) ** 2 + (images[i][1] - images[j][1]) ** 2
            worst = max(worst, Fraction(t, s), Fraction(s, t))
    return None if worst == bilip_sq else f"witness realizes {worst}, reported {bilip_sq}"


def random_curve(rng: random.Random) -> tuple[rectlab.Curve, int]:
    """A seeded closed polyline and an integer T in the counting bound's range."""
    while True:
        pts = sampling.random_closed_polyline(rng, rectilinear=rng.random() < 0.5)
        try:
            curve = rectlab.curve_from_points(pts)
        except ValueError:
            continue
        if curve.length < 4:
            continue
        t = rng.randint(1, max(1, int(curve.length // 4)))
        if t <= curve.length / 4:
            return curve, t


def near_curve_count(curve: rectlab.Curve, t: int) -> int:
    """|{x in Z^2 : dist(x, curve) <= t}| by a loop over the bounding box,
    in integers after doubling (vertices are half-integers)."""
    if any((2 * c).denominator != 1 for v in curve.vertices for c in v):
        raise ValueError("oracle needs half-integer vertices")
    vs = [(int(2 * x), int(2 * y)) for x, y in curve.vertices]
    tt = (2 * t) ** 2
    segs = [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    xs = [v[0] for v in vs]
    ys = [v[1] for v in vs]
    gx0, gx1 = -(-(min(xs) - 2 * t) // 2), (max(xs) + 2 * t) // 2
    gy0, gy1 = -(-(min(ys) - 2 * t) // 2), (max(ys) + 2 * t) // 2
    count = 0
    for gx in range(gx0, gx1 + 1):
        px = 2 * gx
        for gy in range(gy0, gy1 + 1):
            py = 2 * gy
            for (ax, ay), (bx, by) in segs:
                dx, dy = bx - ax, by - ay
                wx, wy = px - ax, py - ay
                dd = dx * dx + dy * dy
                wd = wx * dx + wy * dy
                if dd == 0 or wd <= 0:
                    near = wx * wx + wy * wy <= tt
                elif wd >= dd:
                    near = (px - bx) ** 2 + (py - by) ** 2 <= tt
                else:
                    near = (wx * wx + wy * wy) * dd - wd * wd <= tt * dd
                if near:
                    count += 1
                    break
    return count
