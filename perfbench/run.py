"""holozeta benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports holozeta
from `src/` there.  A run builds one deck of jobs from the seed (writing
input files under perfbench/out/), warms up on a small deck, then makes
rounds until S seconds have gone, timing each job and checking its
answer before the next job starts.  Rounds over the whole deck fill the
first half of S, as many as fit and at least one.  Later rounds run only the
jobs that rank within NEAR places of the median or of the tail
percentile, so the jobs that set those two metrics run many times.

The host is shared: its speed flips between a fast and a slow phase,
about twice as slow, every 50-100 ms, and the share of slow time drifts
over minutes, longer than a run.  So each job run is followed by a
reference run: a fixed piece of the benchmark's own Fraction arithmetic
(no holozeta code), repeated to about REF_SHARE of the job's time, at
least once.  A job run's speed factor is the seconds per reference
piece over the reference runs that end within one job length of it: for
a short job about its own phase, for a long one the phases around it.
A job run is reported in reference seconds, job seconds / speed factor
* REF_S, REF_S being the piece's time on an unloaded host, and a job's
time is the median of that over its runs.  A slower holozeta still reads slower; a slower host does
not.  Set-up runs in fresh interpreters, SETUP_REPEATS of them, each
scaled by a reference run at its end in the same interpreter, and
set-up time is their median.  The metadata
line also carries the plain wall-clock figures.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one pass
untraced and one traced, with per-layer counters patched in from outside
(layers.py), prints the per-layer metrics, and writes the spans and the
per-job determinant sizes under perfbench/out/.  The last stdout line is
always the JSON result.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
SETUP_REF = 40  # reference pieces after each set-up, about 0.12 s
# the reference: two Fraction determinants of a fixed 9 x 9 matrix
REF_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(9)] for i in range(9)]
REF_S = 0.003  # the reference's time on an unloaded 2-core Xeon VM
REF_SHARE = 0.1  # reference time after a job, as a share of the job's time
FULL_SHARE = 0.5  # share of the run that rounds over the whole deck may fill
NEAR = 2  # places on each side of the median and tail ranks rerun later
MODULES = ("laurent", "freegroup", "presentation", "wgraph", "knot", "quandle", "fixtures", "cli")


def load_holozeta():
    """The holozeta modules of this checkout, or None if it has no source."""
    if not os.path.isfile(os.path.join(SRC, "holozeta", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    hz = {name: importlib.import_module("holozeta." + name) for name in MODULES}
    if not os.path.abspath(hz["cli"].__file__).startswith(SRC + os.sep):
        return None
    return hz


def build_decks(hz, args, directory):
    """The warm-up deck and the measured deck, inputs written now."""
    decks = []
    for warm in (True, False):
        d = os.path.join(directory, "warm" if warm else "deck")
        os.makedirs(d)
        decks.append(workloads.build(args.workload, hz, args.seed, d, warm))
    return decks


def reference(pieces: int = 1) -> float:
    """Seconds per piece of `pieces` reference pieces run back to back."""
    t0 = time.perf_counter()
    for _ in range(2 * pieces):
        checks.det(REF_MATRIX)
    return (time.perf_counter() - t0) / pieces


def run_jobs(jobs, tracer=None, timeline=None):
    """Closed loop: time each job, then check it.  Returns job seconds,
    failures (label, reason) and captured stdout bytes.  Given a list as
    `timeline`, runs reference pieces just after each job and appends
    (job start, job end, reference end, seconds per piece, pieces)."""
    times, failures, out_bytes = [], [], 0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a crash is a failed job, not a failed run
            result, error = None, exc
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if timeline is not None:
            pieces = max(1, round(REF_SHARE * (t1 - t0) / REF_S))
            per_piece = reference(pieces)
            timeline.append((t0, t1, time.perf_counter(), per_piece, pieces))
        if error is not None:
            failures.append((job.label, "%s: %s" % (type(error).__name__, error)))
            continue
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
            out_bytes += len(result[1].encode())
        try:
            reason = job.check(result)
        except Exception as exc:
            reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            failures.append((job.label, reason))
    return times, failures, out_bytes


def speed_factors(timeline):
    """Per job run, the seconds per reference piece over the reference
    runs that end from one job length before its start to one job length
    after its own reference run, weighted by pieces."""
    ends = [row[2] for row in timeline]
    factors = []
    for t0, t1, end, _, _ in timeline:
        d = t1 - t0
        near = timeline[bisect.bisect_left(ends, t0 - d):bisect.bisect_right(ends, end + d)]
        factors.append(sum(r[3] * r[4] for r in near) / sum(r[4] for r in near))
    return factors


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = math.ceil(len(sorted_values) * p / 100) - 1
    return sorted_values[min(max(k, 0), len(sorted_values) - 1)]


def measure_setup(args):
    """(reference seconds, wall seconds): the median time of fresh
    interpreters that import holozeta and build this run's inputs.  Each
    then runs SETUP_REF reference pieces, whose time is taken off its wall
    time and whose speed scales it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        t = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr.decode()[-500:])
        ref = json.loads(proc.stdout.decode().splitlines()[-1])
        wall.append(t - ref["spent_s"])
        scaled.append(wall[-1] / ref["reference_s"] * REF_S)
    return statistics.median(scaled), statistics.median(wall)


def machine():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    hz = load_holozeta()
    if hz is None:
        print("no holozeta source under %s" % SRC, file=sys.stderr)
        return 2
    wrong = checks.self_test()
    if wrong:
        print("benchmark checks accept wrong answers: %s" % wrong, file=sys.stderr)
        return 3

    directory = os.path.join(OUT, "run-%d" % os.getpid())
    os.makedirs(directory)
    try:
        warm, deck = build_decks(hz, args, directory)
        if args.setup_only:
            t0 = time.perf_counter()
            per_piece = reference(SETUP_REF)
            print(json.dumps({"reference_s": per_piece, "spent_s": time.perf_counter() - t0}))
            return 0
        setup = None if args.trace else measure_setup(args)
        run_jobs(warm)
        gc.collect()
        gc.freeze()  # keep the decks out of the collector's way, as in a fresh CLI process
        if args.trace:
            result = traced(args, deck)
        else:
            result = untraced(args, deck, setup)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


def summary(args, jobs, times, failures, extra):
    """Print the run's metadata line: machine, job counts, seconds per kind."""
    kinds = {}
    for job, t in zip(jobs, times):
        row = kinds.setdefault(job.label.split()[0], [0, 0.0])
        row[0] += 1
        row[1] += t
    info = dict(machine(), workload=args.workload, seed=args.seed, jobs=len(times),
                failed=len(failures), fail_ratio=len(failures) / max(1, len(times)),
                first_failures=failures[:5], jobs_and_seconds_by_kind=kinds, **extra)
    print(json.dumps(info))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least 10 of n jobs beyond it."""
    return 100.0 * (1 - 10 / n) if n > 10 else 50.0


def near_ranks(times):
    """Indices of the jobs ranked within NEAR places of the median or of
    the tail percentile."""
    n = len(times)
    order = sorted(range(n), key=times.__getitem__)
    tail = math.ceil(n * tail_percentile(n) / 100) - 1
    places = set()
    for k in ((n - 1) // 2, n // 2, tail):
        places.update(range(max(0, k - NEAR), min(n, k + NEAR + 1)))
    return sorted(order[k] for k in places)


def untraced(args, deck, setup):
    n = len(deck)
    scaled, wall, failures = [[] for _ in range(n)], [math.inf] * n, []
    start = time.perf_counter()
    rounds, whole_s = 0, 0.0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        whole = rounds == 0 or t0 - start + whole_s <= FULL_SHARE * args.seconds
        picked = range(n) if whole else near_ranks([statistics.median(r) for r in scaled])
        timeline = []
        times, f, _ = run_jobs([deck[j] for j in picked], timeline=timeline)
        if whole:
            whole_s = time.perf_counter() - t0
        for j, t, r in zip(picked, times, speed_factors(timeline)):
            scaled[j].append(t / r * REF_S)
            wall[j] = min(wall[j], t)
        failures += f
        rounds += 1
    job_s = [statistics.median(r) for r in scaled]
    runs = [len(r) for r in scaled]
    tail_p = tail_percentile(n)
    ordered, wall_ordered = sorted(job_s), sorted(wall)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary(args, deck, job_s, failures,
            {"rounds": rounds, "runs_per_job": [min(runs), statistics.median(runs), max(runs)],
             "tail_percentile": tail_p, "reference_s": REF_S,
             "wall_clock_best": {"jobs_per_s": n / sum(wall), "job_p50_s": statistics.median(wall_ordered),
                                 "job_tail_s": percentile(wall_ordered, tail_p), "setup_s": setup[1]}})
    metrics = {
        "jobs_per_s": (n / sum(job_s), "1/s"),
        "job_p50_s": (statistics.median(ordered), "s"),
        "job_tail_s": (percentile(ordered, tail_p), "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return {"correct": not failures, "attempted": sum(runs), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def det_sizes(sizes):
    """Determinant work per T(2,n) job of the traced pass, and the slope of
    log det seconds against log n over the trivial ladder from n = 9."""
    rows = []
    for label, (det_s, n, span, bits) in sizes.items():
        m = re.match(r"(\S+) T\(2,(\d+)\)", label or "")
        if m:
            rows.append(dict(family=m.group(1), n=int(m.group(2)), det_s=det_s,
                             max_n=n, deg_span=span, coeff_bits=bits))
    rows.sort(key=lambda r: (r["family"], r["n"]))
    pts = [(math.log(r["n"]), math.log(r["det_s"])) for r in rows
           if r["family"] == "trivial" and r["n"] >= 9 and r["det_s"] > 0]
    slope = None
    if len(pts) >= 3:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
    return rows, slope


def traced(args, jobs):
    plain, failures, _ = run_jobs(jobs)
    tracer = layers.Tracer()
    tracer.install()
    try:
        times, traced_failures, out_bytes = run_jobs(jobs, tracer)
    finally:
        tracer.restore()
    failures += traced_failures
    tracer.extra["stdout_bytes"] = out_bytes
    busy = sum(times)
    metrics = tracer.metrics(busy / sum(plain))
    shares = {name: round(m["value"] / busy, 4) for name, m in metrics.items() if m["unit"] == "s"}
    rows, slope = det_sizes(tracer.sizes)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "trace-%s-%d" % (args.workload, args.seed))
    tracer.write(stem + ".spans.jsonl")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({"busy_s": busy, "shares": shares, "det_by_size": rows, "det_growth_exponent": slope,
                   "bindings": tracer.bindings}, fh, indent=1)
    for row in rows:
        print(json.dumps(row))
    summary(args, jobs + jobs, plain + times, failures,
            {"traced_busy_s": busy, "det_growth_exponent": slope, "shares": shares})
    return {"correct": not failures, "attempted": len(plain) + len(times), "failed": len(failures),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
