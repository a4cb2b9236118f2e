"""Run one workload with several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload seam-deep --seeds 1-10 --seconds 30

For every metric it prints the median over the runs and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median.  Runs go one after another, each in its
own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = {k: round(v["value"], 5) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct {res['correct']} failed {res['failed']}/{res['attempted']} {shown}",
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:<56} median {med:<14.6g} quartile spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
