"""Write ``pool.json``: the answers of the current program to a fixed query pool.

Run from the repository root::

    python3 perfbench/make_pool.py

The pool holds the answers that no cheap independent oracle can give
(sliding counts far over the cell cap, exported files, repetitivity
radii, probe-grid reports, brute-force optima, rigorous descriptors).
It was written once, from the commit that introduced the benchmark, and
is the reference every later commit is checked against: regenerating it
from a changed program would compare that program with itself.
Takes about three minutes.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from delone import hierarchy, maps, patch, rectlab, sampling  # noqa: E402

import workloads as W  # noqa: E402

BILIP_GRIDS = [(32, 4, 8)]
MAPS_PER_GRID = 6
BRUTE_FORCE_SETS = 6


def seam_deep(work: Path) -> dict:
    specs = W.build_specs("ue5", "choquet4")
    out: dict = {"counts": {}, "freq": {}}
    freq_ranges = {"ue5": (9, 10), "choquet4": (4,)}
    for key in ("ue5", "choquet4"):
        spec = specs[key]
        spath = work / f"{key}.dhs"
        hierarchy.write_spec(spath, spec)
        out["counts"][key], out["freq"][key] = {}, {}
        for nm, nd in W.needle_pool(spec).items():
            npath = work / "needle.dpf"
            patch.write_patch(npath, nd)
            counts: dict[str, list[int]] = {}
            shas = {}
            for level_to in freq_ranges[key]:
                rc, text = W.call_cli(["freq", "--spec", str(spath), "--needle", str(npath),
                                       "--level-from", "1", "--level-to", str(level_to)])
                assert rc == 0, (key, nm, level_to, rc)
                shas[str(level_to)] = W.sha256_text(text)
                for row in text.strip().splitlines()[1:]:
                    t, j, _nid, num, den, _lo, _hi = row.split("\t")
                    c = Fraction(int(num), int(den)) * spec.cell_count(int(t))
                    counts.setdefault(t, [0] * spec.k(int(t)))[int(j) - 1] = int(c)
            for level in range(max(freq_ranges[key]) + 1, spec.num_levels + 1):
                counts[str(level)] = []
                for pid in range(1, spec.k(level) + 1):
                    rc, text = W.call_cli(["count", "--spec", str(spath), "--needle", str(npath),
                                           "--level", str(level), "--id", str(pid)])
                    assert rc == 0, (key, nm, level, pid, rc)
                    counts[str(level)].append(int(text))
            out["counts"][key][nm] = counts
            out["freq"][key][nm] = shas
            print(f"seam-deep {key} {nm}: {counts[str(spec.num_levels)]}", flush=True)
    return out


def window_kernels(work: Path) -> dict:
    specs = W.build_specs("ue5", "choquet3", "nonrect3")
    wk = W.WindowKernels
    out: dict = {"exports": {}, "repetitivity": {}}
    paths = {}
    for key in specs:
        paths[key] = work / f"{key}.dhs"
        hierarchy.write_spec(paths[key], specs[key])
    for key, level, fmt in wk.EXPORTS:
        for pid in range(1, specs[key].k(level) + 1):
            dest = work / f"export.{fmt}"
            rc, _ = W.call_cli(["export", "--spec", str(paths[key]), "--level", str(level), "--id", str(pid),
                                "--format", fmt, "--out", str(dest)])
            assert rc == 0
            out["exports"][f"{key}:{level}:{pid}:{fmt}"] = W.sha256_file(dest)
    for key, level, r in wk.REPETITIVITY:
        for pid in range(1, specs[key].k(level) + 1):
            rc, text = W.call_cli(["repetitivity", "--spec", str(paths[key]), "--level", str(level),
                                   "--id", str(pid), "--r", str(r)])
            assert rc in (0, 1)
            out["repetitivity"][f"{key}:{level}:{pid}:{r}"] = int(text) if rc == 0 else None
    print("window-kernels:", out["repetitivity"], flush=True)
    return out


def exact_checks(work: Path) -> dict:
    out: dict = {"bilip": {}, "brute_force": {}, "rigorous": {}}
    rc, text = W.call_cli(["verify", "--suite", "all", "--trials", "20", "--seed", "0"])
    assert rc == 0
    out["verify_rows"] = len(text.strip().splitlines()) - 1
    mseed = 1000
    for grid in BILIP_GRIDS:
        m, n, _p = grid
        for _ in range(MAPS_PER_GRID):
            mseed += 1
            f = sampling.random_bilip_map(random.Random(mseed), 2 * m * n + 1, m + 1)
            path = work / "pool.map"
            maps.write_map(path, f)
            rc, text = W.call_cli(["bilip", "--map", str(path), "--grid", *map(str, grid), *W.BILIP_ARGS])
            assert rc == 0
            out["bilip"][f"map{mseed}"] = {"grid": list(grid), "map_seed": mseed,
                                           "stdout_sha256": W.sha256_text(text)}
    # point sets whose search took 25-80 ms when the pool was written, so that
    # brute-force jobs form one latency band instead of spanning three decades
    rng = random.Random(7)
    box = (0, 0, 3, 3)
    wanted = {7: BRUTE_FORCE_SETS // 2, 8: BRUTE_FORCE_SETS // 2}
    while any(wanted.values()):
        n = rng.choice([k for k, v in wanted.items() if v])
        pts: set[tuple[int, int]] = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 5), rng.randint(0, 5)))
        ordered = sorted(pts)
        rng.shuffle(ordered)
        t0 = time.perf_counter()
        res = rectlab.brute_force_min_bilip(ordered, box)
        if not 0.025 <= time.perf_counter() - t0 <= 0.08:
            continue
        wanted[n] -= 1
        out["brute_force"][f"set{len(out['brute_force'])}"] = {
            "points": [list(p) for p in ordered], "box": list(box), "bilip_sq": str(res.bilip_sq)}
    for construction, depth in W.ExactChecks.GENS:
        dest = work / "rig.dhs"
        argv = ["gen", "--construction", construction, "--depth", str(depth), "--mode", "rigorous",
                "--out", str(dest)]
        rc, _ = W.call_cli(argv)
        assert rc == 0
        rc, text = W.call_cli(["stats", "--spec", str(dest)])
        assert rc == 0
        out["rigorous"][f"{construction}:{depth}"] = {"dhs_sha256": W.sha256_file(dest),
                                                      "stats_sha256": W.sha256_text(text)}
    print("exact-checks:", {k: v["bilip_sq"] for k, v in out["brute_force"].items()}, flush=True)
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        pool = {
            "window-kernels": window_kernels(work),
            "exact-checks": exact_checks(work),
            "seam-deep": seam_deep(work),
        }
    with open(W.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
