"""Benchmark of the ``delone`` library: three workloads, each a closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload seam-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client runs one job at a time in this process; the next job starts
when the previous one has finished and been checked, and no other thread
runs.  A run repeats rounds of jobs (see ``workloads.py``) until it has
run at least the workload's minimum number of rounds and ``--seconds``
have passed.  ``--workload all`` runs each workload in its own process.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run times the workload's
minimum number of rounds twice, untraced and then with spans around every
public ``delone`` function (``spans.py``), and reports the per-layer
metrics plus the tracing overhead (traced minus untraced job time).
Spans and a per-run result file go to ``.perfbench_out/``.

Known defects of the program are not timed jobs: a workload's defect
probes run once after the timed jobs, and their answers are printed and
written to the result file but do not count in ``correct``, ``attempted``
or ``failed``.

No machine-level tuning is done: no cache drops, no CPU pinning.
"""

from __future__ import annotations

import os

# numpy must not start a thread pool: the benchmark is one client, one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ["seam-deep", "window-kernels", "exact-checks"]
SETUP_REPS = 3
# times the imports in a child process, as run_one does in its own
IMPORT_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import numpy, delone, spans, workloads
print(time.perf_counter() - t0)
"""

# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = [
    ("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"), ("setup_s", "s"),
]
SPAN_SECONDS = [
    "hierarchy.count_occurrences", "ue.frequency_convergence_report", "hierarchy.materialize",
    "hierarchy.scan_count", "hierarchy.estimate_repetitivity", "patch.dumps_pbm", "patch.dumps_patch",
    "maps.extension_certificate", "maps.exhaustive_distortion_sq", "maps.distortion",
    "rectlab.check_no_stretch", "rectlab.find_regular_square", "rectlab.expanding_pair_search",
    "rectlab.count_lattice_near_curve", "rectlab.brute_force_min_bilip",
    "choquet.build_choquet_spec", "nonrect.build_delone_spec", "ue.build_ue_spec",
    "hierarchy.count_matrix", "hierarchy.validate_scheme", "suites.run_suite",
    "hierarchy.read_spec", "hierarchy.loads_spec", "hierarchy.write_spec", "hierarchy.dumps_spec", "cli.main",
]
SPAN_CALLS = [
    "hierarchy.count_occurrences", "ue.frequency_convergence_report", "hierarchy.materialize",
    "hierarchy.scan_count", "hierarchy.estimate_repetitivity", "maps.extension_certificate",
    "hierarchy.count_matrix",
]
COUNTERS = ["hierarchy.materialize_region.calls", "hierarchy.materialize_region.cells",
            "hierarchy.HierarchySpec.side.calls"]
# sliding-count self time per (spec kind, level): cost against side length
COUNT_LEVELS = [("ue", 8), ("ue", 9), ("ue", 10), ("ue", 11), ("choquet", 4)]


class JobDeadline(BaseException):
    """Raised by SIGALRM inside a job that ran past the workload's deadline.

    A BaseException, so that the CLI's own error handling cannot turn it
    into an exit code.
    """


@dataclass
class Record:
    kind: str
    label: str
    seconds: float
    error: str | None


# ----------------------------------------------------------------------
# running jobs
# ----------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise JobDeadline()


def run_job(job, deadline_s: float, tracer) -> Record:
    if tracer is not None:
        tracer.job += 1
        tracer.enabled = True
    res, err = None, None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        res = job.run()
    except JobDeadline:
        err = f"deadline of {deadline_s} s exceeded"
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        err = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    if err is None:
        try:
            err = job.check(res)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    return Record(job.kind, job.label, dt, err)


def timed_pass(wl, inp, seed: int, seconds: float | None, rounds: int | None, tracer=None):
    """Run rounds of jobs; returns (records, rounds run, jobs per round)."""
    records: list[Record] = []
    start = time.perf_counter()
    r = 0
    per_round = 0
    while True:
        jobs = wl.round_jobs(inp, random.Random(f"{seed}:{r}"), r)
        per_round = len(jobs)
        for job in jobs:
            records.append(run_job(job, wl.deadline_s, tracer))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= wl.min_rounds and time.perf_counter() - start >= seconds:
            break
    return records, r, per_round


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def nearest_rank(values: list[float], pct: float) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def effective_latencies(records: list[Record], deadline_s: float) -> list[float]:
    """Job latencies, with a failed job counted as taking the whole deadline."""
    return [r.seconds if r.error is None else max(r.seconds, deadline_s) for r in records]


def end_to_end(records, deadline_s, tail_pct, setup_s) -> dict[str, float]:
    ok = sum(r.error is None for r in records)
    lat = effective_latencies(records, deadline_s)
    return {
        "jobs_per_s": ok / sum(r.seconds for r in records),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": nearest_rank(lat, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok / len(records),
        "setup_s": setup_s,
    }


def per_layer(tracer, traced: list[Record], untraced: list[Record]) -> dict[str, tuple[float, str]]:
    own = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    mat_cells = scan_cells = placements = hits = 0
    for span, s in zip(tracer.spans, own):
        name, tags = span[3], span[6]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        if tags is None:  # untagged, or the call raised
            continue
        if name == "hierarchy.materialize":
            mat_cells += tags["cells"]
        elif name == "hierarchy.scan_count":
            scan_cells += tags["cells"]
            placements += tags["placements"]
            hits += tags["hits"]
    freq_ids = {span[0] for span in tracer.spans if span[3] == "ue.frequency_convergence_report"}
    freq_counts = sum(1 for span in tracer.spans
                      if span[3] == "hierarchy.count_occurrences" and span[1] in freq_ids)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SPAN_SECONDS:
        out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    level_s = {(kind, level): v[1] for (kind, level, _side), v in count_levels(tracer, own).items()}
    for kind, level in COUNT_LEVELS:
        out[f"hierarchy.count_occurrences.{kind}.L{level}.s"] = (level_s.get((kind, level), 0.0), "s")
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0), "count")
    out["ue.frequency_convergence_report.count_calls_per_job"] = (
        freq_counts / len(freq_ids) if freq_ids else 0.0, "count")
    out["hierarchy.materialize.cells"] = (mat_cells, "count")
    out["hierarchy.scan_count.cells"] = (scan_cells, "count")
    out["hierarchy.scan_count.hit_ratio"] = (hits / placements if placements else 0.0, "ratio")
    t_traced = sum(r.seconds for r in traced)
    t_plain = sum(r.seconds for r in untraced)
    top = sum(span[5] - span[4] for span in tracer.spans if span[1] is None)
    out["trace.overhead_s"] = (t_traced - t_plain, "s")
    out["trace.overhead_frac"] = ((t_traced - t_plain) / t_plain, "ratio")
    out["trace.span_coverage"] = (top / t_traced, "ratio")
    return out


def count_levels(tracer, own: list[float]) -> dict[tuple[str, int, int], list]:
    """Sliding-count [calls, self seconds] per (spec kind, level, side)."""
    out: dict[tuple[str, int, int], list] = {}
    for span, s in zip(tracer.spans, own):
        if span[3] == "hierarchy.count_occurrences" and span[6] is not None:
            tags = span[6]
            entry = out.setdefault((tags["kind"], tags["level"], tags["side"]), [0, 0.0])
            entry[0] += 1
            entry[1] += s
    return out


# ----------------------------------------------------------------------
# facts about the run
# ----------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy

    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            for ln in fh:
                if ln.startswith("MemTotal:"):
                    mem_kb = int(ln.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gb": round(mem_kb / 2**20, 1) if mem_kb else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tuning": "none: no cache drops, no CPU pinning, no frequency control",
    }


def kind_table(records: list[Record]) -> list[str]:
    kinds: dict[str, list[Record]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    lines = [f"  {'job kind':<22}{'jobs':>6}{'failed':>8}{'median s':>11}{'max s':>10}"]
    for kind, rs in sorted(kinds.items()):
        secs = [r.seconds for r in rs]
        lines.append(f"  {kind:<22}{len(rs):>6}{sum(r.error is not None for r in rs):>8}"
                     f"{statistics.median(secs):>11.4f}{max(secs):>10.4f}")
    return lines


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def child_import_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(ROOT / "src"), str(Path(__file__).resolve().parent)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def run_one(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import delone  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import delone from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload](workloads.load_pool())
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(SETUP_REPS):
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            t = time.perf_counter()
            inp = wl.setup(d, random.Random(f"{args.seed}:setup"))
            setup_times.append(time.perf_counter() - t)
        import_times = [import_s] + [child_import_seconds() for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        if args.trace:
            untraced, rounds, per_round = timed_pass(wl, inp, args.seed, None, wl.min_rounds)
            tracer = spans.Tracer()
            tracer.install()
            try:
                records, _, _ = timed_pass(wl, inp, args.seed, None, rounds, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(tracer, records, untraced)
        else:
            records, rounds, per_round = timed_pass(wl, inp, args.seed, args.seconds, None)
            tail_pct = tail_percentile(wl.min_rounds * per_round)
            values = end_to_end(records, wl.deadline_s, tail_pct, setup_s)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        probe_jobs = getattr(wl, "defect_probes", lambda rng: [])(random.Random(f"{args.seed}:probe"))
        probes = [run_job(job, wl.deadline_s, None) for job in probe_jobs]
        facts = wl.facts(inp)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r.error is not None]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(records)} jobs in "
          f"{rounds} rounds of {per_round}, closed loop with one client")
    for name, (val, unit) in metrics.items():
        print(f"  {name:<56}{val:>16.6g} {unit}")
    if not args.trace:
        print(f"  job_tail_s is the p{tail_pct} latency of {len(records)} jobs "
              f"(a failed job counts as its {wl.deadline_s} s deadline)")
        print(f"  failed_frac {len(failed) / len(records):.6g} ({len(failed)} of {len(records)} jobs)")
        print(f"  setup: median of imports {[round(t, 4) for t in import_times]} s"
              f" + median of set-ups {[round(t, 4) for t in setup_times]} s")
    else:
        print(f"  {'count kind':<12}{'level':>6}{'side':>10}{'calls':>7}{'self s':>10}")
        for (kind, level, side), (n, secs) in sorted(count_levels(tracer, tracer.self_times()).items()):
            print(f"  {kind:<12}{level:>6}{side:>10}{n:>7}{secs:>10.4f}")
    print("\n".join(kind_table(records)))
    for r in failed[:10]:
        print(f"  FAILED {r.label}: {r.error}")
    for r in probes:
        print(f"  defect probe {r.label}: {r.error or 'right answer'}")
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "facts": facts, "machine": machine_facts(),
        "jobs": [{"kind": r.kind, "label": r.label, "seconds": r.seconds, "error": r.error} for r in records],
        "defect_probes": [{"label": r.label, "error": r.error} for r in probes],
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("facts: " + json.dumps(facts))
    print("machine: " + json.dumps(result["machine"]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            rc = rc or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    if rc:
        return rc
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
